(** The one execution path behind [flux check], [flux lint], [prusti
    check] and the daemon's [check]/[lint] requests.

    Both the CLI binaries and {!Daemon} call {!run} with the same
    options record; it performs the full frontend → engine → report
    sequence and renders stdout/stderr into buffers. Because daemon
    responses and CLI output come from the *same* rendering code,
    [--daemon] output is byte-identical to in-process output by
    construction — the golden CLI tests double as daemon tests.

    [run] also owns the two cancellation conditions of the daemon
    protocol: a per-request deadline and a client-liveness probe. Both
    are folded into one [cancel] closure polled by the engine pool at
    function boundaries ({!Flux_engine.Pool.run}), so a request is
    abandoned at the next function once its client hung up or its
    deadline passed (a single long function still runs to completion —
    cancellation is task-granular). *)

module Ast = Flux_syntax.Ast
module Parser = Flux_syntax.Parser
module Typeck = Flux_syntax.Typeck
module Profile = Flux_smt.Profile
module Eval = Flux_smt.Eval
module Checker = Flux_check.Checker
module Wp = Flux_wp.Wp
module Engine = Flux_engine.Engine
module Diag = Flux_engine.Diag
module Cache = Flux_engine.Cache
module Pool = Flux_engine.Pool
module Lint = Flux_analysis.Lint
module Passes = Flux_analysis.Passes

type tool = Flux_check | Prusti_check | Flux_lint

let tool_name = function
  | Flux_check | Flux_lint -> "flux"
  | Prusti_check -> "prusti"

type opts = {
  tool : tool;
  quiet : bool;
  times : bool;
  jobs : int;
  cache : bool;
  cache_dir : string;
  certify : bool;
      (** [--certify]: emit/replay proof certificates and attach
          executable counterexample witnesses to failures *)
  absint : bool;
      (** abstract-interpretation pre-solver discharge (on by
          default; [--no-absint] disables) *)
  absint_crosscheck : bool;
      (** [--absint-crosscheck]: re-solve every discharged clause,
          solver verdict winning *)
  dump_mir : bool;  (** [flux check] only *)
  dump_solution : bool;  (** [flux check] only *)
  format_json : bool;  (** [flux check] and [flux lint] *)
  passes : string list;  (** [flux lint] only: [--pass] selections *)
  all_passes : bool;  (** [flux lint] only *)
}

let default_opts tool =
  {
    tool;
    quiet = false;
    times = false;
    jobs = 0;
    cache = true;
    cache_dir = Engine.default_cache_dir;
    certify = false;
    absint = true;
    absint_crosscheck = false;
    dump_mir = false;
    dump_solution = false;
    format_json = false;
    passes = [];
    all_passes = false;
  }

type outcome = { out : string; err : string; code : int }
(** Rendered stdout, rendered stderr, and the process exit code. *)

exception Disconnected
(** The run was cancelled because [check_alive] reported the client
    gone; there is nobody to render a reply for. *)

(* Per-request certificate counter deltas: the profile is domain-local
   and the daemon accumulates across requests, so summarize against a
   snapshot taken before the engine ran. *)
let cert_counts (before : (string * (int * float * bool)) list) :
    int * int * int =
  let get key snap =
    match List.assoc_opt key snap with Some (n, _, _) -> n | None -> 0
  in
  let after = Profile.snapshot () in
  let d key = get key after - get key before in
  (d "cert.emitted", d "cert.replayed", d "cert.failed")

let json_of_witness (w : (string * Eval.value) list) : Json.t =
  Json.Obj
    (List.map
       (fun (x, v) ->
         ( x,
           match v with
           | Eval.VInt n -> Json.Int n
           | Eval.VBool b -> Json.Bool b ))
       w)

let run ?deadline_ms ?(check_alive = fun () -> true) (o : opts)
    ~(file : string) ~(read : unit -> string) : outcome =
  let tool = tool_name o.tool in
  let out_buf = Buffer.create 4096 and err_buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer out_buf in
  let err = Format.formatter_of_buffer err_buf in
  let deadline =
    Option.map
      (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
      deadline_ms
  in
  let deadline_hit () =
    match deadline with Some t -> Unix.gettimeofday () >= t | None -> false
  in
  (* polled concurrently from pool worker domains: both conditions are
     plain syscalls on immutable data, no shared mutable state *)
  let cancel () = deadline_hit () || not (check_alive ()) in
  let finish code =
    Format.pp_print_flush out ();
    Format.pp_print_flush err ();
    { out = Buffer.contents out_buf; err = Buffer.contents err_buf; code }
  in
  (* A bad --cache-dir degrades to uncached verification with one
     warning, not a raw Sys_error (or a silent no-op) from deep inside
     Cache.store: the directory is created (with parents) if missing
     and checked, without writing to it, on every request. *)
  let cache_dir_if enabled =
    if not enabled then None
    else
      match Cache.ensure_dir o.cache_dir with
      | Ok () -> Some o.cache_dir
      | Error msg ->
          Format.fprintf err "%s: warning: %s; persistent cache disabled@."
            tool msg;
          None
  in
  let config =
    {
      Flux_smt.Config.default with
      absint = o.absint;
      absint_crosscheck = o.absint_crosscheck;
    }
  in
  try
    match o.tool with
    | Flux_check ->
        let src = read () in
        let prog =
          lazy
            (let prog = Parser.parse_program src in
             Typeck.check_program prog;
             prog)
        in
        (* the frontend runs here, unless fluxd's source memo holds a key
           list for this source (see {!Engine.prepare}) *)
        let source =
          Engine.prepare
            ~memo:(not (o.certify || o.dump_mir))
            ~config ~prog src
        in
        if o.dump_mir then
          List.iter
            (fun (_, body) ->
              Format.fprintf out "%a@." Flux_mir.Ir.pp_body body)
            (Flux_mir.Lower.lower_program (Lazy.force prog));
        (* cached hits replay verdicts without re-solving, so they have
           no κ solution to dump: --dump-solution implies a full
           re-check *)
        if o.dump_solution && o.cache then
          Format.fprintf err
            "flux: note: --dump-solution disables the verification cache \
             (cached verdicts carry no solution)@.";
        let cfg =
          {
            Engine.jobs = o.jobs;
            cache_dir = cache_dir_if (o.cache && not o.dump_solution);
          }
        in
        let before = if o.certify then Profile.snapshot () else [] in
        let run =
          match
            Engine.check_sources ~cancel ~certify:o.certify ~config cfg
              [ source ]
          with
          | [ r ] -> r
          | _ -> assert false
        in
        (* executable counterexample replay for failures that carry a
           verified model ([--certify] only) *)
        let demo (e : Checker.error) : Witness.run option =
          match e.Checker.err_witness with
          | Some w when o.certify -> (
              let prog = Lazy.force prog in
              match Ast.find_fn prog e.Checker.err_fn with
              | Some fd -> Some (Witness.demonstrate prog fd w)
              | None -> None)
          | _ -> None
        in
        if o.format_json then begin
          let err_json (e : Checker.error) =
            Json.Obj
              ([
                 ("fn", Json.String e.Checker.err_fn);
                 ( "span",
                   Json.String
                     (Format.asprintf "%a" Ast.pp_span e.Checker.err_span) );
                 ("msg", Json.String e.Checker.err_msg);
               ]
              @ (match e.Checker.err_witness with
                | Some w -> [ ("witness", json_of_witness w) ]
                | None -> [])
              @
              match demo e with
              | Some r -> [ ("counterexample", Witness.to_json r) ]
              | None -> [])
          in
          let fn_json (fo : Engine.fn_outcome) =
            let fr = fo.Engine.fo_report in
            Json.Obj
              [
                ("name", Json.String fr.Checker.fr_name);
                ("ok", Json.Bool (Checker.fn_ok fr));
                ("kvars", Json.Int fr.Checker.fr_kvars);
                ("clauses", Json.Int fr.Checker.fr_clauses);
                ("cached", Json.Bool fo.Engine.fo_cached);
                ( "errors",
                  Json.List (List.map err_json fr.Checker.fr_errors) );
              ]
          in
          let certs =
            if o.certify then
              let e, r, f = cert_counts before in
              [
                ( "certificates",
                  Json.Obj
                    [
                      ("emitted", Json.Int e);
                      ("replayed", Json.Int r);
                      ("failed", Json.Int f);
                    ] );
              ]
            else []
          in
          let j =
            Json.Obj
              ([
                 ("tool", Json.String "flux");
                 ("file", Json.String file);
                 ("ok", Json.Bool (Engine.run_ok run));
                 ( "fns",
                   Json.List (List.map fn_json run.Engine.run_fns) );
               ]
              @ certs)
          in
          Format.fprintf out "%s@." (Json.to_string ~pretty:true j);
          finish
            (if Engine.run_ok run then Diag.exit_ok else Diag.exit_failed)
        end
        else begin
          List.iter
            (fun (fo : Engine.fn_outcome) ->
              let fr = fo.Engine.fo_report in
              Diag.print_row out ~quiet:o.quiet ~times:o.times
                ~name:fr.fr_name ~ok:(Checker.fn_ok fr)
                ~stats:
                  (Printf.sprintf "%d κ, %d clauses" fr.fr_kvars
                     fr.fr_clauses)
                ~time:fr.fr_time ~cached:fo.Engine.fo_cached;
              Diag.print_errors out Checker.pp_error fr.fr_errors;
              if o.certify then
                List.iter
                  (fun e ->
                    match demo e with
                    | Some r -> Witness.print out r
                    | None -> ())
                  fr.fr_errors;
              if o.dump_solution then
                match fr.fr_solution with
                | Some sol ->
                    Format.fprintf out "  inferred solution:@.%a"
                      Flux_fixpoint.Solve.pp_solution sol
                | None -> ())
            run.Engine.run_fns;
          (if o.certify && not o.quiet then
             let e, r, f = cert_counts before in
             Format.fprintf out
               "flux: certificates: %d emitted, %d replayed, %d failed@." e r
               f);
          finish
            (Diag.print_footer out ~quiet:o.quiet ~times:o.times ~tool:"flux"
               ~ok:(Engine.run_ok run)
               ~fns:(List.length run.Engine.run_fns)
               ~hits:run.Engine.run_hits ~time:run.Engine.run_time)
        end
    | Prusti_check ->
        let src = read () in
        let prog = Parser.parse_program src in
        Typeck.check_program prog;
        let cfg = { Engine.jobs = o.jobs; cache_dir = cache_dir_if o.cache } in
        let before = if o.certify then Profile.snapshot () else [] in
        let run =
          Engine.verify_program_ast ~cancel ~certify:o.certify ~config cfg
            prog
        in
        List.iter
          (fun (wo : Engine.wp_outcome) ->
            let fr = wo.Engine.wo_report in
            Diag.print_row out ~quiet:o.quiet ~times:o.times ~name:fr.fr_name
              ~ok:(Wp.fn_ok fr)
              ~stats:(Printf.sprintf "%d VCs" fr.fr_vcs)
              ~time:fr.fr_time ~cached:wo.Engine.wo_cached;
            Diag.print_errors out Wp.pp_error fr.fr_errors;
            if o.certify then
              List.iter
                (fun (e : Wp.error) ->
                  match e.Wp.err_witness with
                  | Some w -> (
                      match Ast.find_fn prog e.Wp.err_fn with
                      | Some fd ->
                          Witness.print out (Witness.demonstrate prog fd w)
                      | None -> ())
                  | None -> ())
                fr.fr_errors)
          run.Engine.wr_fns;
        (if o.certify && not o.quiet then
           let e, r, f = cert_counts before in
           Format.fprintf out
             "prusti: certificates: %d emitted, %d replayed, %d failed@." e r
             f);
        finish
          (Diag.print_footer out ~quiet:o.quiet ~times:o.times ~tool:"prusti"
             ~ok:(Engine.wp_run_ok run)
             ~fns:(List.length run.Engine.wr_fns)
             ~hits:run.Engine.wr_hits ~time:run.Engine.wr_time)
    | Flux_lint -> (
        let passes =
          if o.all_passes then Passes.all_passes
          else if o.passes <> [] then o.passes
          else Passes.default_passes
        in
        match
          List.find_opt (fun p -> not (List.mem p Passes.all_passes)) passes
        with
        | Some p ->
            Format.fprintf err "flux: unknown lint pass `%s` (available: %s)@."
              p
              (String.concat ", " Passes.all_passes);
            finish Diag.exit_frontend
        | None ->
            let src = read () in
            let cfg =
              { Lint.jobs = o.jobs; cache_dir = cache_dir_if o.cache; passes }
            in
            let run = Lint.lint_source ~cancel ~config cfg src in
            if o.format_json then begin
              Format.pp_print_flush out ();
              Buffer.add_string out_buf
                (Json.to_string ~pretty:true (Lint.json_of_run ~file run))
            end
            else Lint.print_text out ~quiet:o.quiet ~times:o.times run;
            finish
              (if Lint.run_clean run then Diag.exit_ok else Diag.exit_failed))
  with
  | Pool.Cancelled ->
      if deadline_hit () then begin
        (match deadline_ms with
        | Some ms ->
            Format.fprintf err "%s: error: deadline of %dms exceeded@." tool ms
        | None -> ());
        finish Diag.exit_deadline
      end
      else raise Disconnected
  | e -> (
      match Diag.render_frontend_error ~tool ~file e with
      | Some msg ->
          Format.pp_print_string err msg;
          finish Diag.exit_frontend
      | None -> raise e)
