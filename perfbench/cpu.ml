(** Where the benchmark's processes run. The benchmark process — the
    daemon client and every cold worker, which inherits its CPU set —
    stays on one CPU, its {!home}, so that a cold check always runs on
    the CPU whose speed {!Calib} measures for it. fluxd gets the whole
    CPU set the benchmark was given, as a user would start it, so its
    session domains can serve connections in parallel. *)

external cpus : unit -> int array = "perfbench_cpus"
external pin_to : int -> bool = "perfbench_pin"
external unpin : unit -> unit = "perfbench_unpin"

(** The CPUs this process was started with; empty where CPU affinity is
    unavailable. *)
let all () = Array.to_list (cpus ())

(** The highest-numbered of them; -1 where CPU affinity is unavailable. *)
let home () = List.fold_left max (-1) (all ())

(** Pin this process to its {!home}; returns that CPU. *)
let pin () =
  let c = home () in
  if c >= 0 then ignore (pin_to c);
  c

(** [f ()] with the whole CPU set, so that a process it starts is not
    pinned. *)
let unpinned f =
  unpin ();
  Fun.protect ~finally:(fun () -> ignore (pin ())) f
