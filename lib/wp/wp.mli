(** The Prusti-style program-logic baseline verifier (§5 of the paper).

    Forward symbolic execution over MIR with user-supplied
    [body_invariant!] loop invariants as cut points; vectors are modeled
    with uninterpreted [len]/[sel] plus McCarthy update axioms;
    universally quantified contracts are discharged by staged,
    goal-directed quantifier instantiation. *)

module Ast = Flux_syntax.Ast

type error = {
  err_fn : string;
  err_span : Ast.span;
  err_msg : string;
  err_witness : (string * Flux_smt.Eval.value) list option;
      (** verified falsifying assignment for the failed VC's symbolic
          variables, present under [--certify] *)
}

val pp_error : Format.formatter -> error -> unit

type fn_report = {
  fr_name : string;
  fr_errors : error list;
  fr_vcs : int;  (** verification conditions discharged *)
  fr_time : float;
  fr_goals : (int * Flux_smt.Term.t) list;
      (** under [--certify]: the exact implication discharged for each
          non-trivial VC, keyed by VC index (empty otherwise) *)
}

val fn_ok : fn_report -> bool

exception Wp_error of string * Ast.span
(** Structural problems (constructs the baseline does not model);
    converted into error reports by [verify_body]. *)

type report = { rp_fns : fn_report list; rp_time : float }

val report_ok : report -> bool
val report_errors : report -> error list

val verify_body :
  ?config:Flux_smt.Config.t ->
  ?certify:bool ->
  Ast.program ->
  Ast.fn_def ->
  Flux_mir.Ir.body ->
  fn_report
(** [config] (default {!Flux_smt.Config.default}) selects the
    pre-solver discharge and the quantifier-instantiation rounds per VC
    ([inst_rounds]). With [~certify:true], additionally record the discharged implication
    of every non-trivial VC in [fr_goals] and attach a verified
    counterexample assignment ([err_witness]) to each failure. *)

val verify_program_ast :
  ?config:Flux_smt.Config.t -> ?certify:bool -> Ast.program -> report

val verify_source : ?config:Flux_smt.Config.t -> ?certify:bool -> string -> report
(** Parse, typecheck, lower and verify a source string. *)
