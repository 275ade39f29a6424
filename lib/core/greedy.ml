module Flt = Gncg_util.Flt

(* Both costs can be infinite (disconnected before and after) and near-ties
   are floating-point noise: the tolerant comparison classifies both as
   "no gain", consistently with the rest of the engine. *)
let gain_given ~before host s ~agent mv =
  let after = Cost.agent_cost host (Move.apply s ~agent mv) agent in
  if Flt.approx_eq before after then 0.0 else before -. after

let move_gain ?graph host s ~agent mv =
  gain_given ~before:(Cost.agent_cost ?graph host s agent) host s ~agent mv

let fold_moves ?kinds ?graph host s ~agent f init =
  (* The incumbent cost is shared across the whole candidate list: one
     Dijkstra pass instead of one per move. *)
  let before = Cost.agent_cost ?graph host s agent in
  List.fold_left
    (fun acc mv -> f acc mv (gain_given ~before host s ~agent mv))
    init
    (Move.candidates ?kinds host s ~agent)

let best_move ?kinds ?graph host s ~agent =
  let pick acc mv gain =
    match acc with
    | Some (_, g) when g >= gain -> acc
    | _ when gain > Flt.eps -> Some (mv, gain)
    | _ -> acc
  in
  fold_moves ?kinds ?graph host s ~agent pick None

(* [current -. gain] everywhere except on a move that connects a
   disconnected agent: there both are infinite (inf - inf is NaN), so the
   cost after the move is computed outright. *)
let cost_after_move host s ~agent ~current (mv, gain) =
  if Float.is_finite gain then current -. gain
  else Cost.agent_cost host (Move.apply s ~agent mv) agent

let best_single_move_cost ?kinds ?graph host s ~agent =
  let graph = match graph with Some g -> g | None -> Network.graph host s in
  let current = Cost.agent_cost ~graph host s agent in
  match best_move ?kinds ~graph host s ~agent with
  | None -> current
  | Some best -> cost_after_move host s ~agent ~current best
