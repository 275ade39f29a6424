(** In-memory spans recorded by the benchmark around its own calls into
    each layer: name, start, end, parent span and request id.  Nothing
    is recorded until {!enable}; spans are written out once, at the end
    of a traced run. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;  (** request id shared by the spans of one serve request; 0 otherwise *)
  name : string;  (** ["<layer>.<operation>"] *)
  start : float;  (** seconds, {!Harness.now} clock *)
  stop : float;
}

val enable : unit -> unit

val with_span : ?parent:int -> ?req:int -> string -> (int -> 'a) -> 'a
(** [with_span name f] runs [f id] and, when enabled, records a span
    [id] around it (also when [f] raises).  Pass [id] as [~parent] to
    the spans [f] opens.  Thread-safe.  Disabled, [f] gets id 0. *)

val spans : unit -> span list
(** Everything recorded, in start order. *)

val layer : string -> string
(** The layer of a span name: the part before the first dot. *)

val self_times : span list -> (string * float) list
(** Seconds per layer not covered by the layer's child spans, sorted by
    layer name. *)

val write : string -> span list -> unit
(** One JSON object per line. *)
