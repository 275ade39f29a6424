external monotonic_ns : unit -> (float[@unboxed])
  = "gncg_clock_monotonic_ns_byte" "gncg_clock_monotonic_ns"
[@@noalloc]

let default () = monotonic_ns ()

let current = Atomic.make default

let now_ns () = (Atomic.get current) ()

let set = function
  | None -> Atomic.set current default
  | Some f -> Atomic.set current f
