(** The cold workloads, [table1] and [mutants]: in-process checks from
    an empty cache, as a fresh [flux check --jobs 1] would run them.

    They run in a worker process the parent spawns, so peak RSS and GC
    state belong to the workload, and set-up time is measured from
    process start until the worker is ready to check. *)

module Json = Flux_server.Json

let inputs_of = function
  | "table1" -> Inputs.table1 ()
  | "mutants" -> Inputs.mutants ()
  | w -> invalid_arg ("Cold.inputs_of: " ^ w)

(** Ready to check: the inputs built and each accepted by the frontend. *)
let setup ~workload ~work =
  let inputs = inputs_of workload in
  List.iter
    (fun (i : Inputs.t) ->
      Flux_syntax.Typeck.check_program
        (Flux_syntax.Parser.parse_program i.Inputs.src))
    inputs;
  Flux_engine.Cache.mkdir_p work;
  inputs

type result = {
  attempted : int;
  failed : int;
  metrics : Report.metric list;
  rows : Json.t list;  (** per input, for the record *)
}

(** Rounds of cold passes until [seconds] have passed, each in a fresh
    seeded order; with [trace] every other round is traced, and three
    warm untraced/traced pass pairs follow. *)
let measure ~workload ~inputs ~seed ~seconds ~trace ~work : result =
  let certify = workload = "mutants" in
  let l = Pass.ledger () in
  let rng = Random.State.make [| seed |] in
  let dir_of round (i : Inputs.t) =
    Filename.concat work (Printf.sprintf "cache-%d-%s" round i.Inputs.name)
  in
  let per_input = Hashtbl.create 8 in
  let untraced = ref [] and traced = ref [] in
  let deadline = Unix.gettimeofday () +. seconds in
  let round = ref 0 in
  while
    !untraced = [] || (trace && !traced = []) || Unix.gettimeofday () < deadline
  do
    let r = !round in
    let is_traced = trace && r mod 2 = 1 in
    let order = Inputs.shuffle rng inputs in
    let p =
      Pass.run l ~traced:is_traced ~warm:false ~certify ~ensure_dir:false
        ~dir_of:(dir_of r) order
    in
    if is_traced then traced := p :: !traced
    else begin
      untraced := p :: !untraced;
      List.iter2
        (fun (i : Inputs.t) w ->
          Hashtbl.replace per_input i.Inputs.name
            (w :: Option.value ~default:[] (Hashtbl.find_opt per_input i.Inputs.name)))
        order p.Pass.walls
    end;
    if r > 0 then List.iter (fun i -> Pass.rm_rf (dir_of (r - 1) i)) inputs;
    incr round
  done;
  let last = !round - 1 in
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let walls = List.map (fun (p : Pass.t) -> p.Pass.wall) untraced in
  let checks = List.concat_map (fun (p : Pass.t) -> p.Pass.walls) untraced in
  let end_to_end =
    [
      Report.metric "round_ms" "ms"
        (Report.ms (Stats.median walls))
        ~samples:(List.map Report.ms walls);
      Report.metric "p90_ms" "ms"
        (Report.ms (Stats.percentile 90. checks))
        ~samples:(List.map Report.ms checks);
      Report.metric "peak_rss_mb" "MB" (Pass.peak_rss_mb "self");
    ]
  in
  let per_layer =
    if not trace then []
    else begin
      let warm_untraced = ref [] and warm_traced = ref [] in
      for _ = 1 to 3 do
        let order = Inputs.shuffle rng inputs in
        let pass traced =
          Pass.run l ~traced ~warm:true ~certify ~ensure_dir:false
            ~dir_of:(dir_of last) order
        in
        warm_untraced := pass false :: !warm_untraced;
        warm_traced := pass true :: !warm_traced
      done;
      Report.cold_family ~traced ~untraced
      @ Report.warm_family ~traced:!warm_traced
          ~request_walls:(List.map (fun (p : Pass.t) -> p.Pass.wall) !warm_untraced)
      @ Report.daemon_family ~served:0 ~smt_queries:0 ~mem_hits:0 ~disk_hits:0
    end
  in
  List.iter (fun i -> Pass.rm_rf (dir_of last i)) inputs;
  let rows =
    List.map
      (fun (i : Inputs.t) ->
        let ws = Option.value ~default:[] (Hashtbl.find_opt per_input i.Inputs.name) in
        let counters =
          match Hashtbl.find_opt l.Pass.seen (i.Inputs.name ^ "/cold") with
          | Some o -> o.Pass.counters
          | None -> []
        in
        Json.Obj
          [
            ("input", Json.String i.Inputs.name);
            ( "expect",
              Json.String
                (match i.Inputs.expect with
                | Inputs.Verifies -> "verifies"
                | Inputs.Fails -> "fails") );
            ("check_ms", Stats.summary (List.map Report.ms ws));
            ( "counters",
              Json.Obj
                (List.map2
                   (fun k n -> (k, Json.Int n))
                   Layers.exact_counters counters) );
          ])
      inputs
  in
  {
    attempted = l.Pass.attempted;
    failed = l.Pass.failed;
    metrics = end_to_end @ per_layer;
    rows;
  }

let result_to_json (r : result) : Json.t =
  Json.Obj
    [
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.List (List.map Report.to_json r.metrics));
      ("rows", Json.List r.rows);
    ]

let result_of_json (j : Json.t) : result =
  let get k f = Option.get (Option.bind (Json.member k j) f) in
  {
    attempted = get "attempted" Json.get_int;
    failed = get "failed" Json.get_int;
    metrics = List.map Report.of_json (get "metrics" Json.get_list);
    rows = get "rows" Json.get_list;
  }

(** The worker process: set up, say ["ready"] on stdout, then (unless
    [setup_only]) wait for ["go"] on stdin, measure, and print the
    result as one JSON line. *)
let worker ~workload ~seed ~seconds ~trace ~work ~setup_only =
  let inputs = setup ~workload ~work in
  print_endline "ready";
  if not setup_only && input_line stdin = "go" then begin
    let r =
      Fun.protect ~finally:Calib.stop (fun () ->
          measure ~workload ~inputs ~seed ~seconds ~trace ~work)
    in
    print_endline (Json.to_string (result_to_json r))
  end

(** Spawn three workers, timing each from spawn to ready in nominal
    seconds; the first two stop there, the third measures. Returns the
    measured result and the three set-up times. *)
let run ~workload ~seed ~seconds ~trace ~work : result * float list =
  let spawn setup_only =
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let in_r, in_w = Unix.pipe ~cloexec:true () in
    let args =
      [
        Sys.executable_name; "worker"; "--workload"; workload; "--seed";
        string_of_int seed; "--seconds"; Printf.sprintf "%.17g" seconds;
        "--trace"; (if trace then "1" else "0"); "--work"; work;
      ]
      @ if setup_only then [ "--setup-only" ] else []
    in
    let ic = Unix.in_channel_of_descr out_r in
    let oc = Unix.out_channel_of_descr in_w in
    let (pid, ready), k =
      Calib.span (fun () ->
          let t0 = Unix.gettimeofday () in
          let pid =
            Child.spawn Sys.executable_name (Array.of_list args) ~stdin:in_r
              ~stdout:out_w
          in
          Unix.close out_w;
          Unix.close in_r;
          let ready = try input_line ic with End_of_file -> "" in
          (pid, (ready, Unix.gettimeofday () -. t0)))
    in
    if fst ready <> "ready" then failwith "perfbench: worker failed in set-up";
    (pid, ic, oc, snd ready *. k)
  in
  let finish (pid, ic, oc, _) =
    close_in ic;
    close_out oc;
    if Child.wait pid <> 0 then failwith "perfbench: worker failed"
  in
  let setups =
    List.init 2 (fun _ ->
        let (_, _, _, s) as w = spawn true in
        finish w;
        s)
  in
  let ((_, ic, oc, s) as w) = spawn false in
  output_string oc "go\n";
  flush oc;
  let result =
    match Json.parse (input_line ic) with
    | Ok j -> result_of_json j
    | Error e -> failwith ("perfbench: bad worker result: " ^ e)
    | exception End_of_file -> failwith "perfbench: worker died while measuring"
  in
  finish w;
  (result, s :: setups)
