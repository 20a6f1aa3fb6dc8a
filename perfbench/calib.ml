(** Machine-speed calibration.

    The CPU this benchmark runs on is shared: the same check can take
    460 ms for a minute and 830 ms the next, and a 10 s run cannot
    average such a phase away. So every
    timed span is bracketed by a fixed task that does the kind of work
    the verifier does (short-lived maps, hashtables, strings, sorting)
    and uses no code of the repository, and times are reported in
    nominal seconds: [raw *. nominal /. task_time], with the task time
    the mean of the measurements just before and just after the span.
    Over a four-minute trace in which raw 10 s medians of one check
    spread by 44%, the calibrated ones spread by 7%.

    The CPUs of one shared machine drift apart (the task took 78 ms on
    one and 57 ms on the other in the same 10 s), so the task runs at
    once on every CPU the timed work can run on, and the factor uses
    the mean: the benchmark's own CPU for a cold check, every CPU for
    fluxd. On each CPU it runs in a process of its own
    ([main.exe calib --cpu C]), which shares no heap with the verifier:
    in the verifier's process it would finish the major-GC work a span
    left behind, so a verifier that allocated more would slow the task,
    shrink the factor and hide its own regression. *)

module IntMap = Map.Make (Int)

(** What the task takes on an unloaded 2-vCPU Xeon virtual machine. *)
let nominal_s = 0.05

let task () =
  let acc = ref 0 in
  for r = 1 to 40 do
    let m = ref IntMap.empty in
    for i = 0 to 2000 do
      m := IntMap.add (((i * 7919) + r) mod 10_007) i !m
    done;
    let h = Hashtbl.create 64 in
    IntMap.iter (fun k v -> Hashtbl.replace h (k lxor v) (string_of_int k)) !m;
    let a = Array.init 3000 (fun i -> ((i * 1_000_003) + r) mod 99_991) in
    Array.sort compare a;
    acc := !acc + Hashtbl.length h + a.(r) + IntMap.cardinal !m
  done;
  !acc

(** The calibration process: for every line on stdin, time the task
    and write the seconds it took to stdout; stop at end of input. *)
let serve () =
  try
    while true do
      ignore (input_line stdin);
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (task ()));
      Printf.printf "%.17g\n%!" (Unix.gettimeofday () -. t0)
    done
  with End_of_file -> ()

type server = { pid : int; ic : in_channel; oc : out_channel }

(** One calibration process per CPU (-1: unpinned), started on first use. *)
let servers : (int * server) list ref = ref []

let server cpu =
  match List.assoc_opt cpu !servers with
  | Some s -> s
  | None ->
      let out_r, out_w = Unix.pipe ~cloexec:true () in
      let in_r, in_w = Unix.pipe ~cloexec:true () in
      let pid =
        Child.spawn Sys.executable_name
          [| Sys.executable_name; "calib"; "--cpu"; string_of_int cpu |]
          ~stdin:in_r ~stdout:out_w
      in
      Unix.close in_r;
      Unix.close out_w;
      let s =
        {
          pid;
          ic = Unix.in_channel_of_descr out_r;
          oc = Unix.out_channel_of_descr in_w;
        }
      in
      servers := (cpu, s) :: !servers;
      s

(** The task's mean time over [cpus], run on all of them at once. *)
let measure cpus =
  let ss = List.map server cpus in
  List.iter
    (fun s ->
      output_string s.oc "\n";
      flush s.oc)
    ss;
  let times =
    List.map
      (fun s ->
        match float_of_string_opt (input_line s.ic) with
        | Some t -> t
        | None -> failwith "perfbench: bad calibration reply")
      ss
  in
  List.fold_left ( +. ) 0. times /. float_of_int (List.length times)

(* the latest measurement and its CPUs, which also opens the next span *)
let last : (int list * float) option ref = ref None

(** Stop every calibration process and wait for it. *)
let stop () =
  List.iter
    (fun (_, s) ->
      close_out_noerr s.oc;
      close_in_noerr s.ic;
      ignore (Child.wait s.pid))
    !servers;
  servers := [];
  last := None

let latest cpus =
  match !last with
  | Some (c, t) when c = cpus -> t
  | _ ->
      ignore (measure cpus);
      let t = measure cpus in
      last := Some (cpus, t);
      t

(** [span ?cpus f]: run [f ()] between two measurements on [cpus], the
    CPUs [f]'s work can run on (default: this process's own); returns
    its result and the factor that turns its raw seconds into nominal
    ones. *)
let span ?(cpus = [ Cpu.home () ]) f =
  let before = latest cpus in
  let r = f () in
  let after = measure cpus in
  last := Some (cpus, after);
  (r, nominal_s /. ((before +. after) /. 2.))
