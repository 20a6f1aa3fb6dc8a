(** Reproducer files for the fuzzing corpus.

    Each bug the campaign finds is written to [fuzz-corpus/] in a
    self-contained, re-parseable format, and every file checked into
    that directory is replayed as a regression test by
    [test/test_fuzz.ml]:

    - [*.rs] — a shrunk program for the soundness oracle (plain
      source, re-checked and re-executed on replay);
    - [*.term] — an S-expression of a term for the solver oracle
      (re-evaluated differentially on replay);
    - [*.horn] — an S-expression of a κ declaration set plus clause
      set for the fixpoint oracle (re-solved and re-validated).

    The S-expression syntax is deliberately tiny (atoms and parens, [;]
    line comments) because {!Flux_smt.Term.pp}'s output is for humans,
    not round trips. It is the certificates' syntax: the parser and the
    term codec are {!Flux_smt.Proof}'s. *)

open Flux_smt
open Flux_fixpoint
open Proof

(* ------------------------------------------------------------------ *)
(* Terms: the certificate codec of {!Proof}                            *)
(* ------------------------------------------------------------------ *)

(** [add] each of [xs] into [buf], one line each. *)
let lines add xs =
  let buf = Buffer.create 256 in
  List.iter
    (fun x ->
      add buf x;
      Buffer.add_char buf '\n')
    xs;
  Buffer.contents buf

let term_to_string (t : Term.t) : string = lines add_term [ t ]

let term_of_string (src : string) : Term.t =
  match parse_sexps src with
  | [ s ] -> term_of_sexp s
  | _ -> raise (Parse_error "expected exactly one term")

(* ------------------------------------------------------------------ *)
(* Horn systems                                                        *)
(* ------------------------------------------------------------------ *)

let add_binder buf (x, s) =
  Buffer.add_char buf '(';
  Buffer.add_string buf x;
  add_atom buf (sort_to_atom s);
  close buf

let binder_of_sexp = function
  | List [ Atom x; Atom s ] -> (x, sort_of_atom s)
  | _ -> raise (Parse_error "binder")

let add_pred buf = function
  | Horn.Conc t -> add_node buf "c" add_term [ t ]
  | Horn.Kapp (k, ts) ->
      open_tag buf "k";
      add_atom buf k;
      List.iter (add_arg buf add_term) ts;
      close buf

(** [(x₁ … xₙ)], each printed by [add]. *)
let add_list add buf xs =
  Buffer.add_char buf '(';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ' ';
      add buf x)
    xs;
  close buf

let pred_of_sexp = function
  | List [ Atom "c"; t ] -> Horn.Conc (term_of_sexp t)
  | List (Atom "k" :: Atom k :: ts) -> Horn.Kapp (k, List.map term_of_sexp ts)
  | _ -> raise (Parse_error "pred")

let add_clause buf (cl : Horn.clause) =
  open_tag buf "clause";
  add_int buf cl.Horn.tag;
  add_arg buf (add_list add_binder) cl.Horn.binders;
  add_arg buf (add_list add_pred) cl.Horn.hyps;
  add_arg buf add_pred cl.Horn.head;
  close buf

let clause_of_sexp = function
  | List [ Atom "clause"; Atom tag; List binders; List hyps; head ] ->
      {
        Horn.tag = int_of_string tag;
        binders = List.map binder_of_sexp binders;
        hyps = List.map pred_of_sexp hyps;
        head = pred_of_sexp head;
      }
  | _ -> raise (Parse_error "clause")

let add_kvar buf (kv : Horn.kvar) =
  open_tag buf "kvar";
  add_atom buf kv.Horn.kname;
  add_arg buf (add_list add_binder) kv.Horn.kparams;
  add_int buf kv.Horn.kvalues;
  close buf

let kvar_of_sexp = function
  | List [ Atom "kvar"; Atom kname; List params; Atom kvalues ] ->
      {
        Horn.kname;
        kparams = List.map binder_of_sexp params;
        kvalues = int_of_string kvalues;
      }
  | _ -> raise (Parse_error "kvar")

let horn_to_string (kvars : Horn.kvar list) (clauses : Horn.clause list) :
    string =
  lines add_kvar kvars ^ lines add_clause clauses

let horn_of_string (src : string) : Horn.kvar list * Horn.clause list =
  let sexps = parse_sexps src in
  let kvars, clauses =
    List.partition
      (function List (Atom "kvar" :: _) -> true | _ -> false)
      sexps
  in
  (List.map kvar_of_sexp kvars, List.map clause_of_sexp clauses)
