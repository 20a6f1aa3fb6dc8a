(** The [flux] command-line verifier.

    Usage: [flux check FILE.rs] type-checks a program in the Rust
    subset against its [#[lr::sig(...)]] refinement signatures, with
    optional dumps of the MIR, the generated Horn constraints and the
    inferred κ solutions. [flux lint FILE.rs] runs the solver-backed
    static-analysis passes (vacuous specs, unreachable code, trivial
    inferred invariants, dead stores, overflow candidates) over the
    same functions.

    Both subcommands go through the engine ({!Flux_engine.Engine}):
    functions are processed in parallel on [--jobs] domains and
    previously-clean functions are replayed from the persistent on-disk
    cache ([--cache-dir], disable with [--no-cache]). Output is
    byte-identical for every [--jobs] value: reports are emitted in
    declaration order and wall-clock times are only shown on request
    ([--times], inherently nondeterministic).

    With [--daemon] the request is routed through a persistent [fluxd]
    process ({!Flux_server.Daemon}) over a Unix socket — auto-started
    on first use, managed explicitly with [flux daemon
    start|stop|status|metrics]. The daemon keeps verdicts in memory, so
    warm re-checks answer without any SMT queries; its output is
    byte-identical to the in-process path (both render through
    {!Flux_server.Exec}), and any daemon failure falls back to checking
    in-process. *)

open Cmdliner
module Engine = Flux_engine.Engine
module Diag = Flux_engine.Diag
module Passes = Flux_analysis.Passes
module Fuzz = Flux_fuzz.Fuzz
module Exec = Flux_server.Exec
module Daemon = Flux_server.Daemon
module Client = Flux_server.Client
module Protocol = Flux_server.Protocol
module Json = Flux_server.Json

(** Run one tool invocation — through the daemon when asked (and
    possible), in-process otherwise — then replay its rendered streams
    and return its exit code. *)
let run_tool ~daemon ~socket ~deadline (opts : Exec.opts) ~file =
  let local () =
    Exec.run ?deadline_ms:deadline opts ~file ~read:(fun () ->
        Diag.read_file file)
  in
  let outcome =
    if daemon then
      match Client.run ~socket ?deadline_ms:deadline opts ~file with
      | Some o -> o
      | None -> local ()
    else local ()
  in
  print_string outcome.Exec.out;
  prerr_string outcome.Exec.err;
  flush stdout;
  flush stderr;
  outcome.Exec.code

(* ------------------------------------------------------------------ *)
(* flux check                                                          *)
(* ------------------------------------------------------------------ *)

let check_cmd_run file dump_mir dump_solution quiet jobs cache cache_dir times
    daemon socket deadline certify format absint absint_crosscheck =
  let opts =
    {
      Exec.tool = Exec.Flux_check;
      quiet;
      times;
      jobs;
      cache;
      cache_dir;
      certify;
      absint;
      absint_crosscheck;
      dump_mir;
      dump_solution;
      format_json = (format = `Json);
      passes = [];
      all_passes = false;
    }
  in
  run_tool ~daemon ~socket ~deadline opts ~file

(* ------------------------------------------------------------------ *)
(* flux lint                                                           *)
(* ------------------------------------------------------------------ *)

let lint_cmd_run file format quiet jobs cache cache_dir times pass_sel all
    daemon socket deadline absint absint_crosscheck =
  let opts =
    {
      Exec.tool = Exec.Flux_lint;
      quiet;
      times;
      jobs;
      cache;
      cache_dir;
      certify = false;
      absint;
      absint_crosscheck;
      dump_mir = false;
      dump_solution = false;
      format_json = (format = `Json);
      passes = pass_sel;
      all_passes = all;
    }
  in
  run_tool ~daemon ~socket ~deadline opts ~file

(* ------------------------------------------------------------------ *)
(* flux fuzz                                                           *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd_run seed budget oracle jobs corpus no_corpus quiet =
  let oracles =
    match Fuzz.oracle_of_string oracle with
    | Some os -> os
    | None ->
        Format.eprintf
          "flux: unknown oracle `%s` (expected soundness, solver, cert, \
           fixpoint, incremental, absint or all)@."
          oracle;
        exit Diag.exit_frontend
  in
  let cfg =
    {
      Fuzz.seed;
      budget;
      oracles;
      jobs;
      corpus_dir = (if no_corpus then None else Some corpus);
    }
  in
  if not quiet then
    Format.printf "flux fuzz: seed=%d budget=%.0fs oracles=%s jobs=%d@." seed
      budget
      (String.concat "," (List.map Fuzz.oracle_name oracles))
      jobs;
  let summary = Fuzz.run cfg in
  let bugs = Fuzz.summary_bugs summary in
  (match cfg.Fuzz.corpus_dir with
  | Some dir when bugs <> [] ->
      let paths = Fuzz.write_corpus dir bugs in
      List.iter (Format.printf "  wrote reproducer %s@.") paths
  | _ -> ());
  Format.printf "%a" Fuzz.pp_summary summary;
  if bugs = [] then Diag.exit_ok else Diag.exit_failed

(* ------------------------------------------------------------------ *)
(* flux daemon                                                         *)
(* ------------------------------------------------------------------ *)

let daemon_start_run socket foreground =
  let cfg = { Daemon.socket } in
  if foreground then
    match Daemon.serve cfg with
    | Ok () -> 0
    | Error msg ->
        Format.eprintf "%s@." msg;
        1
  else
    match Daemon.daemonize cfg with
    | Ok (Daemon.Started pid) ->
        Format.printf "fluxd: started (pid %d, socket %s)@." pid socket;
        0
    | Ok Daemon.Already_running ->
        Format.printf "fluxd: already running (socket %s)@." socket;
        0
    | Error msg ->
        Format.eprintf "%s@." msg;
        1

let daemon_stop_run socket =
  match Client.roundtrip ~socket Protocol.Shutdown with
  | Ok _ ->
      (* wait for the drain to complete so "stop && start" is reliable *)
      let t0 = Unix.gettimeofday () in
      while Sys.file_exists socket && Unix.gettimeofday () -. t0 < 10. do
        ignore (Unix.select [] [] [] 0.05)
      done;
      Format.printf "fluxd: stopped@.";
      0
  | Error _ ->
      Format.eprintf "fluxd: not running (socket %s)@." socket;
      1

let daemon_info_run req socket =
  match Client.roundtrip ~socket req with
  | Ok (Protocol.Info j) ->
      print_string (Json.to_string ~pretty:true j);
      0
  | Ok _ | Error _ ->
      Format.eprintf "fluxd: not running (socket %s)@." socket;
      1

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Rust-subset source file")

let dump_mir_flag =
  Arg.(value & flag & info [ "dump-mir" ] ~doc:"Print the lowered MIR")

let dump_solution_flag =
  Arg.(value & flag & info [ "dump-solution" ]
         ~doc:"Print the inferred κ solutions (disables the cache)")

let quiet_flag = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print errors")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Verify functions in parallel on $(docv) domains (0 = one per core; clamped to core count)")

let cache_flag =
  Arg.(
    value
    & vflag true
        [
          (true, info [ "cache" ] ~doc:"Use the persistent verification cache (default)");
          (false, info [ "no-cache" ] ~doc:"Disable the persistent verification cache");
        ])

let cache_dir_arg =
  Arg.(
    value
    & opt string Engine.default_cache_dir
    & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Verification cache directory")

let times_flag =
  Arg.(
    value & flag
    & info [ "times" ]
        ~doc:"Show per-function and total wall-clock times (nondeterministic)")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Report format: $(b,text) or $(b,json)")

let pass_arg =
  Arg.(
    value & opt_all string []
    & info [ "pass" ] ~docv:"PASS"
        ~doc:
          "Run only the given pass (repeatable). Available: vacuity, \
           unreachable, trivial-refinement, dead-store, div-by-zero, \
           index-bounds, overflow")

let all_passes_flag =
  Arg.(
    value & flag
    & info [ "all" ]
        ~doc:"Run every pass, including the allow-by-default ones (overflow)")

let absint_flag =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "absint" ]
              ~doc:
                "Discharge trivially-valid proof obligations with the \
                 abstract-interpretation pre-solver before any SMT \
                 (default). Verdicts are byte-identical either way" );
          ( false,
            info [ "no-absint" ]
              ~doc:
                "Send every proof obligation to the SMT solver (disables \
                 the abstract pre-solver discharge)" );
        ])

let absint_crosscheck_flag =
  Arg.(
    value & flag
    & info [ "absint-crosscheck" ]
        ~doc:
          "Re-solve every clause the abstract pre-solver discharged and \
           take the solver's verdict; disagreements are counted in the \
           $(b,absint.crosscheck_fail) profile counter (used by CI to \
           audit the discharge layer)")

let daemon_flag =
  Arg.(
    value & flag
    & info [ "daemon" ]
        ~doc:
          "Route the request through a persistent $(b,fluxd) daemon \
           (auto-started on first use); falls back to in-process checking \
           if the daemon is unreachable. Output is byte-identical to the \
           non-daemon path")

let socket_arg =
  Arg.(
    value
    & opt string (Client.default_socket ())
    & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon Unix-domain socket path")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline" ] ~docv:"MS"
        ~doc:
          "Abandon the request after $(docv) milliseconds (checked at \
           function boundaries); exit code 3 on expiry")

let certify_flag =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Emit an independently replayable proof certificate for every \
           verified obligation (stored next to the cache entry; warm runs \
           re-validate by replay instead of trusting the cache), and attach \
           a verified falsifying assignment plus an executable \
           counterexample trace to every failure")

let foreground_flag =
  Arg.(
    value & flag
    & info [ "foreground" ]
        ~doc:"Run the daemon in the foreground instead of detaching")

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"Verify a program with liquid refinement types")
    Term.(
      const check_cmd_run $ file_arg $ dump_mir_flag $ dump_solution_flag
      $ quiet_flag $ jobs_arg $ cache_flag $ cache_dir_arg $ times_flag
      $ daemon_flag $ socket_arg $ deadline_arg $ certify_flag
      $ format_arg $ absint_flag $ absint_crosscheck_flag)

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the solver-backed lint passes (vacuous specs, unreachable \
          code, trivial inferred invariants, dead stores)")
    Term.(
      const lint_cmd_run $ file_arg $ format_arg $ quiet_flag $ jobs_arg
      $ cache_flag $ cache_dir_arg $ times_flag $ pass_arg $ all_passes_flag
      $ daemon_flag $ socket_arg $ deadline_arg $ absint_flag
      $ absint_crosscheck_flag)

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:"Campaign seed; every reported bug reprints it")

let budget_arg =
  Arg.(
    value & opt float 10.0
    & info [ "budget" ] ~docv:"SECS"
        ~doc:
          "Time budget, mapped to a deterministic case count per oracle \
           (identical runs examine identical cases regardless of machine \
           speed)")

let oracle_arg =
  Arg.(
    value & opt string "all"
    & info [ "oracle" ] ~docv:"ORACLE"
        ~doc:
          "Which oracle to run: $(b,soundness), $(b,solver), $(b,cert) \
           (certificate replay), $(b,fixpoint), $(b,incremental) \
           (full-vs-incremental schedule differential), $(b,absint) \
           (abstract-interpretation γ-containment and discharge \
           soundness) or $(b,all)")

let corpus_arg =
  Arg.(
    value & opt string "fuzz-corpus"
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:"Directory for shrunk reproducers of found bugs")

let no_corpus_flag =
  Arg.(
    value & flag
    & info [ "no-corpus" ] ~doc:"Do not write reproducer files")

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the verifier: generate random programs/terms/constraint \
          systems and cross-check the checker, the SMT layer and the \
          fixpoint solver against ground-truth oracles")
    Term.(
      const fuzz_cmd_run $ seed_arg $ budget_arg $ oracle_arg $ jobs_arg
      $ corpus_arg $ no_corpus_flag $ quiet_flag)

let daemon_cmd =
  Cmd.group
    (Cmd.info "daemon"
       ~doc:
         "Manage the persistent verification daemon ($(b,fluxd)): an \
          always-on process that keeps verdicts in memory so warm \
          re-checks answer without SMT queries")
    [
      Cmd.v
        (Cmd.info "start" ~doc:"Start the daemon (no-op if already running)")
        Term.(const daemon_start_run $ socket_arg $ foreground_flag);
      Cmd.v
        (Cmd.info "stop" ~doc:"Stop the daemon (drains in-flight requests)")
        Term.(const daemon_stop_run $ socket_arg);
      Cmd.v
        (Cmd.info "status" ~doc:"Print daemon status as JSON")
        Term.(const (daemon_info_run Protocol.Status) $ socket_arg);
      Cmd.v
        (Cmd.info "metrics"
           ~doc:
             "Print aggregate daemon metrics as JSON (requests, cache-tier \
              hits, SMT queries, latency percentiles)")
        Term.(const (daemon_info_run Protocol.Metrics) $ socket_arg);
    ]

let main =
  Cmd.group
    (Cmd.info "flux" ~version:"0.1.0"
       ~doc:"Liquid types for a Rust subset (OCaml reproduction of Flux, PLDI 2023)")
    [ check_cmd; lint_cmd; fuzz_cmd; daemon_cmd ]

let () = exit (Cmd.eval' main)
