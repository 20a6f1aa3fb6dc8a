(** The [flux lint] driver: runs the {!Passes} suite over every
    function of one or more programs, through the same parallel pool
    and persistent cache as verification.

    Functions are independent lint tasks, exactly as they are
    independent verification tasks, so lint runs through the engine's
    cached-run driver ({!Flux_engine.Engine.cached_run}), like check
    and verify: misses are scheduled on the engine's domain pool
    ([--jobs]). The cache reuses the engine's content-addressed keys
    ({!Flux_engine.Cache.program_keys}) with the enabled pass set folded
    into the configuration salt; only {e clean} results — zero
    findings, verification OK — are stored, so a hit soundly replays
    "nothing to report" without a single SMT query, and anything that
    produced findings (whose messages carry source spans the key
    deliberately ignores) is re-linted. *)

module Ast = Flux_syntax.Ast
module Checker = Flux_check.Checker
module Genv = Flux_check.Genv
module Engine = Flux_engine.Engine
module Cache = Flux_engine.Cache
module Json = Flux_json.Json

type config = {
  jobs : int;  (** worker domains; [<= 0] selects one per core *)
  cache_dir : string option;  (** [None] disables the persistent cache *)
  passes : string list;  (** enabled pass ids (see {!Passes.catalog}) *)
}

let default_config =
  {
    jobs = 0;
    cache_dir = Some Engine.default_cache_dir;
    passes = Passes.default_passes;
  }

(* The lint cache key extends the verification configuration with the
   pass set: a verification verdict never answers for a lint result,
   and enabling a pass re-lints everything. *)
let lint_config_string (config : Flux_smt.Config.t) (passes : string list) =
  Printf.sprintf "%s;lint=%s"
    (Flux_smt.Config.fingerprint config)
    (String.concat "," (List.sort String.compare passes))

(** Per-function lint outcome, in declaration order. *)
type outcome = {
  lo_fn : string;
  lo_diags : Passes.diag list;
  lo_cached : bool;
  lo_errors : Checker.error list;
      (** refinement errors from the underlying verification (lint
          findings are about meaning; these are about correctness) *)
}

type run = {
  lr_fns : outcome list;
  lr_hits : int;
  lr_misses : int;
  lr_time : float;
}

let run_diags (r : run) : Passes.diag list =
  List.concat_map (fun o -> o.lo_diags) r.lr_fns

let run_clean (r : run) = run_diags r = []

(** Lint several programs through one shared schedule, with the
    engine's cached-run driver ({!Flux_engine.Engine.cached_run}). *)
let lint_programs ?cancel ?(config = Flux_smt.Config.default) (cfg : config)
    (progs : Ast.program list) : run list =
  let salt = lint_config_string config cfg.passes in
  Engine.cached_run ~cache_dir:cfg.cache_dir
    ~counters:("lint.cache_hits", "lint.cache_misses")
    ~tasks:(fun prog ->
      let genv = Genv.build prog in
      List.map
        (fun (fd, body, key) -> ((genv, fd, body), key))
        (Cache.program_keys ~keyed:(cfg.cache_dir <> None) ~config:salt genv
           prog))
    ~hit:(fun ~dir:_ _ (_, (fd : Ast.fn_def), _) _ ->
      Some
        { lo_fn = fd.Ast.fn_name; lo_diags = []; lo_cached = true; lo_errors = [] })
    ~run:(fun tasks ->
      Engine.run_pool ?cancel ~jobs:cfg.jobs
        ~sizes:(Array.map (fun (_, _, body) -> Engine.body_size body) tasks)
        (Array.map
           (fun (genv, fd, body) () ->
             Passes.run_function ~config ~passes:cfg.passes genv fd body)
           tasks))
    ~store:(fun ~dir k _ (fr, diags) ->
      (* clean results only: a hit must imply "nothing to report" *)
      if diags = [] && Checker.fn_ok fr then
        Cache.store ~dir k
          {
            Cache.e_kvars = fr.Checker.fr_kvars;
            e_clauses = fr.Checker.fr_clauses;
            e_time = fr.Checker.fr_time;
          })
    ~fresh:(fun (_, (fd : Ast.fn_def), _) (fr, diags) ->
      {
        lo_fn = fd.Ast.fn_name;
        lo_diags = diags;
        lo_cached = false;
        lo_errors = fr.Checker.fr_errors;
      })
    ~assemble:(fun fns ~hits ~misses ~time ->
      { lr_fns = fns; lr_hits = hits; lr_misses = misses; lr_time = time })
    progs

let lint_source ?cancel ?config (cfg : config) (src : string) : run =
  let prog = Flux_syntax.Parser.parse_program src in
  Flux_syntax.Typeck.check_program prog;
  match lint_programs ?cancel ?config cfg [ prog ] with
  | [ r ] -> r
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_diag fmt (d : Passes.diag) =
  Format.fprintf fmt "%s[%s] %s:%a: %s"
    (Passes.severity_str d.Passes.d_severity)
    d.Passes.d_pass d.Passes.d_fn Ast.pp_span d.Passes.d_span
    d.Passes.d_msg

(** Human-readable report. [quiet] prints findings only, no footer. *)
let print_text fmt ~(quiet : bool) ~(times : bool) (r : run) : unit =
  List.iter
    (fun o ->
      List.iter (fun d -> Format.fprintf fmt "%a@." pp_diag d) o.lo_diags)
    r.lr_fns;
  if not quiet then begin
    let n = List.length r.lr_fns in
    let d = List.length (run_diags r) in
    let cached =
      if r.lr_hits > 0 then Printf.sprintf " (%d from cache)" r.lr_hits
      else ""
    in
    if times then
      Format.fprintf fmt "flux lint: %d function(s), %d finding(s)%s in %.3fs@."
        n d cached r.lr_time
    else
      Format.fprintf fmt "flux lint: %d function(s), %d finding(s)%s@." n d
        cached
  end

(** Machine-readable report for [--format json] and the CI artifact. *)
let json_of_run ~(file : string) (r : run) : Json.t =
  let diag (d : Passes.diag) =
    Json.Obj
      [
        ("pass", Json.String d.Passes.d_pass);
        ("severity", Json.String (Passes.severity_str d.Passes.d_severity));
        ("function", Json.String d.Passes.d_fn);
        ("line", Json.Int d.Passes.d_span.Ast.sp_start.Ast.line);
        ("col", Json.Int d.Passes.d_span.Ast.sp_start.Ast.col);
        ("message", Json.String d.Passes.d_msg);
      ]
  in
  Json.Obj
    [
      ("file", Json.String file);
      ("functions", Json.Int (List.length r.lr_fns));
      ("cache_hits", Json.Int r.lr_hits);
      ("diagnostics", Json.List (List.map diag (run_diags r)));
      ("clean", Json.Bool (run_clean r));
    ]
