(** The Flux refinement checker — the algorithmic system of §4 of the
    paper, over MIR.

    Typical use:
    {[
      let report = Checker.check_source source_text in
      if Checker.report_ok report then print_endline "verified"
      else
        List.iter
          (fun e -> Format.printf "%a@." Checker.pp_error e)
          (Checker.report_errors report)
    ]} *)

module Ast = Flux_syntax.Ast

(** A verification error, mapped back to a source span. [err_witness]
    (present under [--certify]) is a falsifying assignment for the
    failed obligation's constraint variables, verified by ground
    evaluation before being attached. *)
type error = {
  err_fn : string;
  err_span : Ast.span;
  err_msg : string;
  err_witness : (string * Flux_smt.Eval.value) list option;
}

val pp_error : Format.formatter -> error -> unit

(** Per-function result: errors (empty = verified), the inferred κ
    solution, and constraint statistics. *)
type fn_report = {
  fr_name : string;
  fr_errors : error list;
  fr_solution : Flux_fixpoint.Solve.solution option;
  fr_kvars : int;  (** κ variables created (joins + instantiations) *)
  fr_clauses : int;  (** flat Horn clauses generated *)
  fr_time : float;  (** seconds, including fixpoint solving *)
}

val fn_ok : fn_report -> bool

exception Check_error of string * Ast.span
(** Raised for structural problems (ill-formed specs, unsupported
    constructs); refinement failures are reported in [fn_report]
    instead. [check_body] converts this exception into an error report;
    it can still escape from programs that fail before checking
    starts. *)

(** Whole-program report. *)
type report = { rp_fns : fn_report list; rp_time : float }

val report_ok : report -> bool
val report_errors : report -> error list

val check_body :
  ?config:Flux_smt.Config.t ->
  Genv.t ->
  Ast.fn_def ->
  Flux_mir.Ir.body ->
  fn_report
(** Check one lowered function against its resolved signature, solving
    its constraints with the incremental schedule under [config]
    (default {!Flux_smt.Config.default}). Usize subtractions are always
    checked for underflow (DESIGN.md decision 6). *)

(** Facts recorded for the lint passes as the checker walks a body (see
    [lib/analysis]). Recording never adds clauses or tags, so the
    [fn_report] of a lint run is identical to a plain run's. *)
type lint_info = {
  li_precond : Flux_smt.Term.t list;
      (** the assumed entry context: resolved preconditions plus
          argument index invariants (unsat = vacuous spec) *)
  li_blocks : (int * Flux_smt.Term.t list) list;
      (** per checked block: the concrete (κ-free) entry hypotheses —
          unsat implies the block is unreachable *)
  li_dead_blocks : int list;
      (** blocks the checker never flowed into (structurally dead) *)
  li_join_kvars : (int * string list) list;
      (** per join block: κ names declared for its template *)
  li_overflow :
    (Ast.span * string * Flux_fixpoint.Horn.clause) list;
      (** machine-int range side conditions, for
          {!Flux_fixpoint.Solve.check_clause} under [fr_solution] *)
  li_kvars : Flux_fixpoint.Horn.kvar list;
      (** all κ declarations of the body (for clause evaluation) *)
}

val check_body_lint :
  ?config:Flux_smt.Config.t ->
  Genv.t ->
  Ast.fn_def ->
  Flux_mir.Ir.body ->
  fn_report * lint_info
(** Like {!check_body}, with the lint side channel enabled. *)

(** {2 Split-phase checking}

    The engine schedules constraint generation and fixpoint solving as
    separate pool tasks (the latter one SCC slice at a time, see
    {!Flux_fixpoint.Solve}): {!prepare} walks the body and returns the
    constraint system, {!finish} turns the solver's verdict into the
    report {!check_body} would have produced. *)

type prepared
(** A checked-but-unsolved function: its constraint system, or the
    errors that aborted generation. *)

val prepare : ?lint:bool -> Genv.t -> Ast.fn_def -> Flux_mir.Ir.body -> prepared
(** Walk one lowered function and generate its constraints
    ([lint] defaults to [false]). Never raises {!Check_error} for
    per-function problems — those surface as early errors in the
    resulting report. *)

val prepared_name : prepared -> string
val prepared_early : prepared -> bool
(** Whether generation failed; if [true] there is nothing to solve. *)

val prepared_kvars : prepared -> Flux_fixpoint.Horn.kvar list
val prepared_clauses : prepared -> Flux_fixpoint.Horn.clause list
val prepared_lint : prepared -> lint_info option

val finish :
  ?solve_s:float ->
  ?certify:bool ->
  prepared ->
  Flux_fixpoint.Solve.result option ->
  fn_report
(** Map the solver verdict back to source spans ([None] only for early
    failures). [solve_s] is added to the generation time in [fr_time].
    With [~certify:true], each failure additionally gets a verified
    counterexample assignment in [err_witness] (when the solver can
    produce one). *)

val check_program_ast : ?config:Flux_smt.Config.t -> Ast.program -> report
(** Check every non-trusted function of a parsed, typechecked program. *)

val check_source : ?config:Flux_smt.Config.t -> string -> report
(** Parse, typecheck, lower and refine-check a source string. Raises the
    frontend's exceptions ({!Flux_syntax.Parser.Error},
    {!Flux_syntax.Typeck.Error}, {!Flux_syntax.Lexer.Error}) on
    ill-formed input. *)
