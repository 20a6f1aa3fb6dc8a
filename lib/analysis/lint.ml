(** The [flux lint] driver: runs the {!Passes} suite over every
    function of one or more programs, through the same parallel pool
    and persistent cache as verification.

    Functions are independent lint tasks, exactly as they are
    independent verification tasks, so misses are scheduled on the
    engine's domain pool ([--jobs]). The cache reuses the engine's
    content-addressed key ({!Flux_engine.Cache.flux_key}) with the
    enabled pass set folded into the configuration salt; only {e
    clean} results — zero findings, verification OK — are stored, so a
    hit soundly replays "nothing to report" without a single SMT query,
    and anything that produced findings (whose messages carry source
    spans the key deliberately ignores) is re-linted. *)

module Ast = Flux_syntax.Ast
module Checker = Flux_check.Checker
module Genv = Flux_check.Genv
module Engine = Flux_engine.Engine
module Cache = Flux_engine.Cache
module Json = Flux_json.Json
open Flux_fixpoint

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

(** Lint several programs through one shared pool schedule (mirrors
    {!Flux_engine.Engine.check_programs}). *)
let lint_programs ?cancel ?(config = Flux_smt.Config.default) (cfg : config)
    (progs : Ast.program list) : run list =
  let t0 = Unix.gettimeofday () in
  let salt = lint_config_string config cfg.passes in
  let quals_fp = Cache.qualifiers_fingerprint Qualifier.default in
  let tasks = ref [] in
  let n_tasks = ref 0 in
  let slots =
    List.map
      (fun prog ->
        let genv = Genv.build prog in
        let senv_fp =
          if cfg.cache_dir = None then ""
          else Cache.struct_env_fingerprint genv.Genv.senv
        in
        List.filter_map
          (fun (fd : Ast.fn_def) ->
            if fd.Ast.fn_trusted then None
            else
              match Genv.find_body genv fd.Ast.fn_name with
              | None -> None
              | Some body ->
                  let key =
                    Option.map
                      (fun _dir ->
                        Cache.flux_key ~config:salt ~senv_fp ~quals_fp
                          ~lookup:(Genv.find_sig genv) fd body)
                      cfg.cache_dir
                  in
                  let hit =
                    match (key, cfg.cache_dir) with
                    | Some k, Some dir ->
                        Option.map
                          (fun (_ : Cache.entry) ->
                            {
                              lo_fn = fd.Ast.fn_name;
                              lo_diags = [];
                              lo_cached = true;
                              lo_errors = [];
                            })
                          (Cache.load ~dir k)
                    | _ -> None
                  in
                  (match hit with
                  | Some o ->
                      Flux_smt.Profile.incr "lint.cache_hits";
                      Some (`Hit o)
                  | None ->
                      if key <> None then
                        Flux_smt.Profile.incr "lint.cache_misses";
                      let i = !n_tasks in
                      incr n_tasks;
                      tasks := (genv, fd, body, key) :: !tasks;
                      Some (`Todo (i, fd.Ast.fn_name, key))))
          (Ast.program_fns prog))
      progs
  in
  let task_arr = Array.of_list (List.rev !tasks) in
  let sizes = Array.map (fun (_, _, body, _) -> Engine.body_size body) task_arr in
  let fns =
    Array.map
      (fun (genv, fd, body, _) () ->
        Passes.run_function ~config ~passes:cfg.passes genv fd body)
      task_arr
  in
  let results = Engine.run_pool ?cancel ~jobs:cfg.jobs ~sizes fns in
  (* Store clean results only: a hit must imply "nothing to report". *)
  (match cfg.cache_dir with
  | Some dir ->
      Array.iteri
        (fun i (_, _, _, key) ->
          let fr, diags = results.(i) in
          match key with
          | Some k when diags = [] && Checker.fn_ok fr ->
              Cache.store ~dir k
                {
                  Cache.e_kvars = fr.Checker.fr_kvars;
                  e_clauses = fr.Checker.fr_clauses;
                  e_time = fr.Checker.fr_time;
                }
          | _ -> ())
        task_arr
  | None -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  List.map
    (fun prog_slots ->
      let fns =
        List.map
          (function
            | `Hit o -> o
            | `Todo (i, name, _) ->
                let fr, diags = results.(i) in
                {
                  lo_fn = name;
                  lo_diags = diags;
                  lo_cached = false;
                  lo_errors = fr.Checker.fr_errors;
                })
          prog_slots
      in
      let hits = List.length (List.filter (fun o -> o.lo_cached) fns) in
      {
        lr_fns = fns;
        lr_hits = hits;
        lr_misses = List.length fns - hits;
        lr_time = elapsed;
      })
    slots

let lint_program_ast ?cancel ?config (cfg : config) (prog : Ast.program) :
    run =
  match lint_programs ?cancel ?config cfg [ prog ] with
  | [ r ] -> r
  | _ -> assert false

let lint_source ?cancel ?config (cfg : config) (src : string) : run =
  let prog = Flux_syntax.Parser.parse_program src in
  Flux_syntax.Typeck.check_program prog;
  lint_program_ast ?cancel ?config cfg prog

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
