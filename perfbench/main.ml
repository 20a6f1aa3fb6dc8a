(** The seeded end-to-end benchmark of the verifier (see README.md).

    [main.exe --workload W --seed N --seconds S --trace 0|1 [--out FILE]]
    runs one workload: [table1] and [mutants] check inputs cold,
    in-process; [daemon-read] and [daemon-mixed] drive a resident
    fluxd. It prints every metric with its unit, then, as the last line
    of stdout, one JSON object
    [{"correct", "attempted", "failed", "metrics"}]: the end-to-end
    metrics of BENCHMARK.json untraced, the per-layer ones traced.
    [--out] also writes the full record: revision, configuration, core
    count, seed, and order statistics of every metric. Without
    [--workload] every workload runs untraced, then traced.

    [main.exe counters --write FILE | --against FILE] writes or checks
    the exact counters of every input (see baseline_counters.json).

    [main.exe smoke] runs each workload for 1 s and checks the result
    lines against BENCHMARK.json, and that an interrupted daemon run
    leaves no socket, pidfile or process behind.

    [main.exe worker ...] and [main.exe calib --cpu C] are the cold
    workload's worker process (see {!Cold}) and a calibration process
    (see {!Calib}), which the benchmark starts itself. *)

module Json = Flux_server.Json

let workloads = [ "table1"; "mutants"; "daemon-read"; "daemon-mixed" ]
let end_to_end = [ "round_ms"; "p90_ms"; "peak_rss_mb"; "setup_s" ]
let work_root = ".perfbench-work"

(** The running workload's work directory, removed however the run
    ends. *)
let current_work : string option ref = ref None

let cleanup () =
  Calib.stop ();
  Child.kill_all ();
  Option.iter Pass.rm_rf !current_work;
  current_work := None

(** An interrupted run: kill and reap every child, calibration
    processes included, without touching their channels, which the
    signal may have interrupted mid-read. *)
let interrupted _ =
  Child.kill_all ();
  Option.iter Pass.rm_rf !current_work;
  exit 130

type args = {
  mode : string;
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool option;
  out : string option;
  work : string option;
  setup_only : bool;
  against : string option;
  write : string option;
  cpu : int option;
}

let usage () =
  prerr_endline
    "usage: main.exe [run] [--workload table1|mutants|daemon-read|daemon-mixed]\n\
    \                [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
    \       main.exe counters (--write FILE | --against FILE)\n\
    \       main.exe smoke";
  exit 2

let parse argv =
  let a =
    {
      mode = "run";
      workload = None;
      seed = 1;
      seconds = 15.;
      trace = None;
      out = None;
      work = None;
      setup_only = false;
      against = None;
      write = None;
      cpu = None;
    }
  in
  let num f s = match f s with Some v -> v | None -> usage () in
  let rec go a = function
    | [] -> a
    | ("run" | "worker" | "calib" | "counters" | "smoke") as m :: rest
      when a.mode = "run" ->
        go { a with mode = m } rest
    | "--workload" :: w :: rest when List.mem w workloads ->
        go { a with workload = Some w } rest
    | "--seed" :: n :: rest -> go { a with seed = num int_of_string_opt n } rest
    | "--seconds" :: s :: rest ->
        go { a with seconds = num float_of_string_opt s } rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        go { a with trace = Some (t = "1") } rest
    | "--out" :: f :: rest -> go { a with out = Some f } rest
    | "--work" :: d :: rest -> go { a with work = Some d } rest
    | "--setup-only" :: rest -> go { a with setup_only = true } rest
    | "--against" :: f :: rest -> go { a with against = Some f } rest
    | "--write" :: f :: rest -> go { a with write = Some f } rest
    | "--cpu" :: c :: rest -> go { a with cpu = Some (num int_of_string_opt c) } rest
    | arg :: _ ->
        Printf.eprintf "perfbench: unexpected argument %s\n" arg;
        usage ()
  in
  go a (List.tl (Array.to_list argv))

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

type outcome = {
  workload : string;
  traced : bool;
  attempted : int;
  failed : int;
  metrics : Report.metric list;
  rows : Json.t list;
}

let run_workload ~workload ~seed ~seconds ~trace ~work : outcome =
  let attempted, failed, metrics, setups, rows =
    if String.starts_with ~prefix:"daemon" workload then
      let r = Daemon_load.run ~workload ~seed ~seconds ~trace ~work in
      Daemon_load.(r.attempted, r.failed, r.metrics, r.setups, [])
    else
      let r, setups = Cold.run ~workload ~seed ~seconds ~trace ~work in
      Cold.(r.attempted, r.failed, r.metrics, setups, r.rows)
  in
  let setup = Report.metric "setup_s" "s" (Stats.median setups) ~samples:setups in
  let metrics =
    List.filter
      (fun (m : Report.metric) -> List.mem m.Report.name end_to_end <> trace)
      (metrics @ [ setup ])
  in
  { workload; traced = trace; attempted; failed; metrics; rows }

let result_line (o : outcome) : Json.t =
  Json.Obj
    [
      ("correct", Json.Bool (o.failed = 0));
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("metrics", Report.result_metrics o.metrics);
    ]

(** [git] output in a git checkout, [None] elsewhere (never a parent
    directory's repository). *)
let git args =
  if not (Sys.file_exists ".git") then None
  else
    let ic = Unix.open_process_args_in "git" (Array.of_list ("git" :: args)) in
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Some (String.trim out)
    | _ -> None

let write_record file ~nproc ~cpu ~seed ~seconds (outcomes : outcome list) =
  let opt f = function Some v -> f v | None -> Json.Null in
  let record =
    Json.Obj
      [
        ("revision", opt (fun s -> Json.String s) (git [ "rev-parse"; "HEAD" ]));
        ( "dirty",
          opt
            (fun s -> Json.Bool (s <> ""))
            (git [ "status"; "--porcelain"; "--untracked-files=no" ]) );
        ("config", Json.String (Flux_engine.Engine.flux_config_string ()));
        ("nproc", Json.Int nproc);
        ("cpu", Json.Int cpu);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ( "runs",
          Json.List
            (List.map
               (fun o ->
                 Json.Obj
                   [
                     ("workload", Json.String o.workload);
                     ("trace", Json.Bool o.traced);
                     ("attempted", Json.Int o.attempted);
                     ("failed", Json.Int o.failed);
                     ("metrics", Report.record_metrics o.metrics);
                     ("inputs", Json.List o.rows);
                   ])
               outcomes) );
      ]
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Json.to_string ~pretty:true record))

let run ~nproc ~cpu (a : args) =
  let runs =
    match (a.workload, a.trace) with
    | Some w, t -> [ (w, Option.value t ~default:false) ]
    | None, Some t -> List.map (fun w -> (w, t)) workloads
    | None, None ->
        List.concat_map (fun w -> [ (w, false); (w, true) ]) workloads
  in
  let outcomes =
    List.map
      (fun (workload, trace) ->
        let work =
          Filename.concat work_root
            (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
        in
        current_work := Some work;
        let o =
          Fun.protect ~finally:cleanup (fun () ->
              run_workload ~workload ~seed:a.seed ~seconds:a.seconds ~trace ~work)
        in
        Printf.printf "%s (%s, seed %d): %d attempted, %d failed\n" workload
          (if trace then "traced" else "untraced")
          a.seed o.attempted o.failed;
        Report.print o.metrics;
        o)
      runs
  in
  Option.iter
    (fun f -> write_record f ~nproc ~cpu ~seed:a.seed ~seconds:a.seconds outcomes)
    a.out;
  let line =
    match outcomes with
    | [ o ] -> result_line o
    | os ->
        (* several workloads: one line, metrics named workload/metric *)
        result_line
          {
            workload = "all";
            traced = false;
            attempted = List.fold_left (fun n o -> n + o.attempted) 0 os;
            failed = List.fold_left (fun n o -> n + o.failed) 0 os;
            metrics =
              List.concat_map
                (fun o ->
                  List.map
                    (fun (m : Report.metric) ->
                      { m with Report.name = o.workload ^ "/" ^ m.Report.name })
                    o.metrics)
                os;
            rows = [];
          }
  in
  print_endline (Json.to_string line);
  if List.exists (fun o -> o.failed > 0) outcomes then exit 1

(* ------------------------------------------------------------------ *)
(* Exact counters against a committed baseline                         *)
(* ------------------------------------------------------------------ *)

let counters (a : args) =
  let work = Filename.concat work_root (Printf.sprintf "counters-%d" (Unix.getpid ())) in
  let l = Pass.ledger () in
  let sets = [ (Inputs.primed (), false); (Inputs.mutants (), true) ] in
  Fun.protect
    ~finally:(fun () ->
      Calib.stop ();
      Pass.rm_rf work)
    (fun () ->
      List.iter
        (fun (inputs, certify) ->
          List.iteri
            (fun k traced ->
              ignore
                (Pass.run l ~traced ~warm:false ~certify ~ensure_dir:false
                   ~dir_of:(fun (i : Inputs.t) ->
                     Filename.concat work (Printf.sprintf "%d-%s" k i.Inputs.name))
                   inputs))
            [ false; true ])
        sets);
  let table =
    Json.Obj
      (List.concat_map
         (fun (inputs, _) ->
           List.map
             (fun (i : Inputs.t) ->
               let o = Hashtbl.find l.Pass.seen (i.Inputs.name ^ "/cold") in
               ( i.Inputs.name,
                 Json.Obj
                   (List.map2
                      (fun k n -> (k, Json.Int n))
                      Layers.exact_counters o.Pass.counters) ))
             inputs)
         sets)
  in
  let ok = ref (l.Pass.failed = 0) in
  (match (a.write, a.against) with
  | Some f, _ ->
      Out_channel.with_open_bin f (fun oc ->
          output_string oc (Json.to_string ~pretty:true table))
  | None, Some f -> (
      match Json.parse (Flux_engine.Diag.read_file f) with
      | Ok base when base = table -> ()
      | Ok (Json.Obj base) ->
          ok := false;
          List.iter
            (fun (name, now) ->
              match List.assoc_opt name base with
              | Some b when b = now -> ()
              | b ->
                  Printf.printf "%s: baseline %s, now %s\n" name
                    (Option.fold ~none:"missing" ~some:Json.to_string b)
                    (Json.to_string now))
            (match table with Json.Obj kvs -> kvs | _ -> [])
      | Ok _ | Error _ ->
          ok := false;
          Printf.printf "%s: not a counter table\n" f)
  | None, None -> usage ());
  Printf.printf "exact counters: %s\n" (if !ok then "identical" else "DIFFER");
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Smoke: result lines against BENCHMARK.json                          *)
(* ------------------------------------------------------------------ *)

(** Run this executable with [args]; its exit code and stdout. *)
let self args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Child.spawn Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      ~stdout:w
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  (Child.wait ~timeout:170. pid, out)

(** Socket and pidfile paths left under the work root. *)
let leftovers () =
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
        List.concat_map
          (fun n ->
            let p = Filename.concat dir n in
            if Sys.is_directory p then walk p
            else if Filename.check_suffix n ".sock" || Filename.check_suffix n ".pid"
            then [ p ]
            else [])
          (Array.to_list names)
  in
  walk work_root

let smoke () =
  let failures = ref 0 in
  let check cond fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "  %s %s\n%!" (if cond then "ok  " else "FAIL") msg;
        if not cond then incr failures)
      fmt
  in
  let bench =
    match Json.parse (Flux_engine.Diag.read_file "BENCHMARK.json") with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let get conv k j = Option.bind (Json.member k j) conv in
  let list k = Option.value ~default:[] (get Json.get_list k bench) in
  let str k j = Option.get (get Json.get_string k j) in
  check
    (List.map (str "name") (list "workloads") = workloads)
    "BENCHMARK.json declares the workloads %s" (String.concat ", " workloads);
  let declared key =
    List.sort compare
      (List.map (fun j -> (str "name" j, get Json.get_string "unit" j)) (list key))
  in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let key = if trace then "per_layer" else "end_to_end" in
          let code, out =
            self
              [ "--workload"; w; "--seed"; "1"; "--seconds"; "1"; "--trace";
                (if trace then "1" else "0") ]
          in
          let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
          match Option.map Json.parse (List.nth_opt (List.rev lines) 0) with
          | Some (Ok j) ->
              let metrics =
                match Json.member "metrics" j with
                | Some (Json.Obj kvs) -> kvs
                | _ -> []
              in
              let value name =
                Option.bind (List.assoc_opt name metrics) (get Json.get_float "value")
              in
              check
                (code = 0 && get Json.get_bool "correct" j = Some true)
                "%s %s: exit 0, correct" w key;
              check
                (List.sort compare
                   (List.map
                      (fun (name, m) -> (name, get Json.get_string "unit" m))
                      metrics)
                 = declared key
                && List.for_all
                     (fun (name, _) ->
                       Option.fold ~none:false ~some:Float.is_finite (value name))
                     metrics)
                "%s %s: metrics and units are exactly those declared" w key;
              if trace && not (String.starts_with ~prefix:"daemon" w) then begin
                match (value "cold.unattributed_ms", value "cold.wall_ms") with
                | Some u, Some wall ->
                    check (Float.abs u <= 0.05 *. wall)
                      "%s: layer self times add up to the traced wall within 5%% \
                       (%.1f of %.1f ms unattributed)"
                      w u wall
                | _ -> check false "%s: traced wall clock reported" w
              end
          | _ -> check false "%s %s: last line is a JSON result (exit %d)" w key code)
        [ false; true ];
      check (leftovers () = []) "%s: no socket or pidfile left behind" w)
    workloads;
  (* an interrupted daemon run must leave nothing running or behind *)
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Child.spawn Sys.executable_name
      [| Sys.executable_name; "--workload"; "daemon-read"; "--seconds"; "60" |]
      ~stdout:null
  in
  Unix.close null;
  let rec await_daemon n =
    let pid_of p =
      try int_of_string_opt (String.trim (Flux_engine.Diag.read_file p))
      with Sys_error _ -> None
    in
    match List.filter_map pid_of (leftovers ()) with
    | d :: _ -> Some d
    | _ when n > 0 ->
        Unix.sleepf 0.1;
        await_daemon (n - 1)
    | _ -> None
  in
  (match await_daemon 300 with
  | None -> check false "interrupted daemon run: fluxd started"
  | Some daemon ->
      Unix.kill pid Sys.sigterm;
      let code = Child.wait ~timeout:30. pid in
      let alive = try Unix.kill daemon 0; true with Unix.Unix_error _ -> false in
      check
        (code <> 0 && (not alive) && leftovers () = [])
        "interrupted daemon run: exit %d, fluxd gone, nothing left behind" code);
  Printf.printf "smoke: %s\n" (if !failures = 0 then "PASS" else "FAIL");
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let a = parse Sys.argv in
  let nproc = Domain.recommended_domain_count () in
  let cpu = Cpu.pin () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  match a.mode with
  | "worker" -> (
      match (a.workload, a.work) with
      | Some workload, Some work ->
          Cold.worker ~workload ~seed:a.seed ~seconds:a.seconds
            ~trace:(a.trace = Some true) ~work ~setup_only:a.setup_only
      | _ -> usage ())
  | "calib" ->
      Option.iter (fun c -> if c >= 0 then ignore (Cpu.pin_to c)) a.cpu;
      Calib.serve ()
  | "counters" -> counters a
  | "smoke" -> smoke ()
  | _ -> run ~nproc ~cpu a
