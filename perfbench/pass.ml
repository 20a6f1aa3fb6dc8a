(** A pass: one in-process check of every input of a set, in a given
    order, each verdict checked against its known answer and against
    every earlier check of the same input. *)

module Profile = Flux_smt.Profile
module Engine = Flux_engine.Engine

(** Times are nominal seconds (see {!Calib}). *)
type t = {
  wall : float;  (** summed over the checks *)
  walls : float list;  (** per check *)
  trace : Layers.trace;  (** self time per layer; zero when untraced *)
  counts : (string * int) list;  (** profile counters summed over the pass *)
  times : (string * float) list;  (** profile timers summed over the pass *)
  hits : int;  (** function verdicts replayed from the cache *)
  minor_words : float;
  major_collections : int;
}

(** What every check of one input must reproduce. *)
type outcome = { rendered : string; counters : int list }

type ledger = {
  seen : (string, outcome) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
}

let ledger () = { seen = Hashtbl.create 32; attempted = 0; failed = 0 }

let fail (l : ledger) fmt =
  l.failed <- l.failed + 1;
  Printf.eprintf ("perfbench: " ^^ fmt ^^ "\n%!")

let counter_keys =
  [
    "solver.queries";
    "solver.cache_hits";
    "solver.theory_checks";
    "absint.discharged";
    "absint.fallthrough";
    "fixpoint.weaken_checks";
    "fixpoint.reweaken_skipped";
    "fixpoint.scc_count";
    "fixpoint.final_checks";
    "check.clauses";
    "check.kvars";
    "cert.cex";
  ]

let timer_keys = [ "solver.elab_s"; "solver.dpll_s" ]

(** Check every input once. [dir_of] names each input's cache
    directory; [warm] tells the ledger which rendering to expect (a
    warm check replays some verdicts from the cache, so it renders
    [cached=true] where a cold one does not). *)
let run (l : ledger) ~traced ~warm ~certify ~ensure_dir ~dir_of
    (inputs : Inputs.t list) : t =
  let tr = Layers.new_trace () in
  let walls = ref [] and snaps = ref [] and hits = ref 0 in
  let check (inp : Inputs.t) =
    let dir = dir_of inp in
    Layers.fresh ();
    l.attempted <- l.attempted + 1;
    let t0 = Unix.gettimeofday () in
    let result =
      match
        if traced then Layers.replay tr ~dir ~certify ~ensure_dir inp.Inputs.src
        else Layers.engine ~dir ~certify inp.Inputs.src
      with
      | r -> Ok r
      | exception e -> Error (Printexc.to_string e)
    in
    walls := (Unix.gettimeofday () -. t0) :: !walls;
    let snap = Profile.snapshot () in
    snaps := snap :: !snaps;
    match result with
    | Error msg -> fail l "%s: raised %s" inp.Inputs.name msg
    | Ok run -> (
        hits := !hits + run.Engine.run_hits;
        let ok = Engine.run_ok run in
        if ok <> (inp.Inputs.expect = Inputs.Verifies) then
          fail l "%s: wrong verdict (%s)" inp.Inputs.name
            (if ok then "verified" else "failed");
        let o =
          {
            rendered = Layers.render run;
            counters = List.map (Layers.profile_count snap) Layers.exact_counters;
          }
        in
        let key = inp.Inputs.name ^ if warm then "/warm" else "/cold" in
        match Hashtbl.find_opt l.seen key with
        | None -> Hashtbl.add l.seen key o
        | Some o' when o'.rendered <> o.rendered ->
            fail l "%s: verdicts differ between checks" key
        | Some o' when o'.counters <> o.counters ->
            fail l "%s: exact counters differ between checks (%s vs %s)" key
              (String.concat "," (List.map string_of_int o'.counters))
              (String.concat "," (List.map string_of_int o.counters))
        | Some _ -> ())
  in
  let (gc0, gc1), k =
    Calib.span (fun () ->
        let gc0 = Gc.quick_stat () in
        List.iter check inputs;
        (gc0, Gc.quick_stat ()))
  in
  let count key =
    List.fold_left (fun n snap -> n + Layers.profile_count snap key) 0 !snaps
  in
  let time key =
    List.fold_left (fun t snap -> t +. Layers.profile_time snap key) 0. !snaps
  in
  {
    wall = k *. List.fold_left ( +. ) 0. !walls;
    walls = List.rev_map (fun w -> w *. k) !walls;
    trace = Array.map (fun s -> s *. k) tr;
    counts = List.map (fun key -> (key, count key)) counter_keys;
    times = List.map (fun key -> (key, k *. time key)) timer_keys;
    hits = !hits;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(** Remove a directory tree (the benchmark's own work files only). *)
let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(** The process's peak resident set size, in MB. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  (* /proc files report length 0, so read to end of file *)
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        nan
        (String.split_on_char '\n' s)
