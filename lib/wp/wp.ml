(** A Prusti-style program-logic verifier over the same MIR — the
    baseline of the paper's evaluation (§5).

    The verifier performs forward symbolic execution with user-supplied
    loop invariants ([body_invariant!]) as cut points, models vectors
    with uninterpreted [len]/[sel] functions plus McCarthy-style update
    axioms, and supports the universally quantified specifications
    Prusti needs for element facts ([forall(|x: usize| ...)],
    [old(..)], [result], [x.lookup(i)], [x.row_len(r)]). Quantifiers
    are discharged by E-matching-lite: each verification condition
    instantiates the in-scope universal facts at the ground index terms
    occurring in the VC, for a configurable number of rounds.

    This mirrors the two costs the paper attributes to program-logic
    verifiers: the {e annotation} cost (quantified loop invariants must
    be written by hand — the checker fails without them) and the
    {e solver} cost (quantifier instantiation makes the SMT queries
    much larger than Flux's quantifier-free ones). *)

open Flux_smt
module Ast = Flux_syntax.Ast
module Ir = Flux_mir.Ir
module Discharge = Flux_absint.Discharge
module IMap = Map.Make (Int)

type error = {
  err_fn : string;
  err_span : Ast.span;
  err_msg : string;
  err_witness : (string * Eval.value) list option;
      (** verified falsifying assignment for the failed VC's symbolic
          variables, present under [--certify] *)
}

let pp_witness fmt = function
  | Some ((_ :: _) as w) ->
      Format.fprintf fmt "@.    falsified by %s"
        (String.concat ", "
           (List.map
              (fun (x, v) -> Format.asprintf "%s = %a" x Eval.pp_value v)
              w))
  | Some [] | None -> ()

let pp_error fmt e =
  Format.fprintf fmt "%s:%a: %s%a" e.err_fn Ast.pp_span e.err_span e.err_msg
    pp_witness e.err_witness

type fn_report = {
  fr_name : string;
  fr_errors : error list;
  fr_vcs : int;
  fr_time : float;
  fr_goals : (int * Term.t) list;
      (** under [--certify]: the exact implication discharged for each
          non-trivial VC, keyed by VC index — the terms [Solver.certify]
          is later asked to prove (empty otherwise) *)
}

let fn_ok r = r.fr_errors = []

(** Cap on ground candidate terms per VC. *)
let inst_cap = 24

(* ------------------------------------------------------------------ *)
(* Symbolic values and state                                           *)
(* ------------------------------------------------------------------ *)

(** Path facts: ground formulas or universally quantified ones. *)
type fact = FGround of Term.t | FForall of (string * Sort.t) list * Term.t

(** A local's symbolic meaning: a value, or a reference to (a slot of)
    another local. *)
type sym =
  | SVal of Term.t
  | SRef of int * Term.t option
      (** reference to local root; [Some i] = reference to element [i]
          of the root vector *)

type state = {
  vals : sym IMap.t;
  facts : fact list;  (** reversed *)
}

exception Wp_error of string * Ast.span

let werr span fmt = Format.kasprintf (fun s -> raise (Wp_error (s, span))) fmt

let len_of v = Term.app "len" [ v ]
let sel v i = Term.app "sel" [ v; i ]

let fresh_val prefix = Term.var ~sort:Sort.Int (Rty_fresh.fresh prefix)

(* A tiny indirection so we can reuse the rtype fresh-name counter
   without depending on the whole checker. *)

(* ------------------------------------------------------------------ *)
(* Verifier context                                                    *)
(* ------------------------------------------------------------------ *)

type ck = {
  prog : Ast.program;
  body : Ir.body;
  fd : Ast.fn_def;
  mutable errors : error list;
  mutable vcs : int;
  (* loop bookkeeping *)
  preds : int list array;
  loop_blocks : (int, unit) Hashtbl.t array;  (** per header: natural loop *)
  mutable processed_headers : (int, unit) Hashtbl.t;
  mutable entry_env : (string * Term.t) list option;
      (** parameter values at entry, for [old(..)] in postconditions *)
  certify : bool;
  config : Config.t;
      (** discharge switches and quantifier-instantiation rounds *)
  mutable goals : (int * Term.t) list;  (** discharged VCs, certify only *)
}

let add_error ?witness ck span msg =
  ck.errors <-
    {
      err_fn = ck.fd.Ast.fn_name;
      err_span = span;
      err_msg = msg;
      err_witness = witness;
    }
    :: ck.errors

(* ------------------------------------------------------------------ *)
(* Quantifier instantiation and VC checking                            *)
(* ------------------------------------------------------------------ *)

(** Collect integer-sorted candidate terms for instantiation: arguments
    of [sel] and [len], plus variables and small arithmetic subterms
    appearing in the formulas. *)
let rec collect_candidates (acc : (string, Term.t) Hashtbl.t) (t : Term.t) =
  (match t with
  | Term.App ("sel", [ _; i ]) -> Hashtbl.replace acc (Term.to_string i) i
  | _ -> ());
  match t with
  | Term.Var _ | Term.Int _ | Term.Real _ | Term.Bool _ -> ()
  | Term.Neg a | Term.Not a -> collect_candidates acc a
  | Term.Binop (_, a, b)
  | Term.Cmp (_, a, b)
  | Term.Eq (a, b)
  | Term.Ne (a, b)
  | Term.Imp (a, b)
  | Term.Iff (a, b) ->
      collect_candidates acc a;
      collect_candidates acc b
  | Term.And ts | Term.Or ts | Term.App (_, ts) ->
      List.iter (collect_candidates acc) ts
  | Term.Ite (a, b, c) ->
      collect_candidates acc a;
      collect_candidates acc b;
      collect_candidates acc c

(** Variables denoting containers in a formula: variables in the first
    (value) argument position of [sel]/[len] applications. Used for the
    relevance filter below — connecting quantified facts through shared
    scalars (like a common dimension [n]) would defeat the filter. *)
let rec container_vars (acc : (string, unit) Hashtbl.t) (t : Term.t) =
  (match t with
  | Term.App (_, a0 :: _) -> (
      match a0 with
      | Term.Var (x, _) -> Hashtbl.replace acc x ()
      | _ -> ())
  | Term.Eq (Term.App _, Term.Var (x, _)) | Term.Eq (Term.Var (x, _), Term.App _)
    ->
      (* a variable equated to a container read is itself a container
         alias (e.g. sel(v, i) = ret) *)
      Hashtbl.replace acc x ()
  | _ -> ());
  match t with
  | Term.Var _ | Term.Int _ | Term.Real _ | Term.Bool _ -> ()
  | Term.Neg a | Term.Not a -> container_vars acc a
  | Term.Binop (_, a, b)
  | Term.Cmp (_, a, b)
  | Term.Eq (a, b)
  | Term.Ne (a, b)
  | Term.Imp (a, b)
  | Term.Iff (a, b) ->
      container_vars acc a;
      container_vars acc b
  | Term.And ts | Term.Or ts | Term.App (_, ts) ->
      List.iter (container_vars acc) ts
  | Term.Ite (a, b, c) ->
      container_vars acc a;
      container_vars acc b;
      container_vars acc c

let container_var_set (t : Term.t) : Term.VarSet.t =
  let tbl = Hashtbl.create 8 in
  container_vars tbl t;
  Hashtbl.fold (fun x () acc -> Term.VarSet.add x acc) tbl Term.VarSet.empty

(** Check a verification condition: do the path facts entail [goal]? *)
let check_vc ck (st : state) span ~(what : string) (goal : Term.t) : unit =
  ck.vcs <- ck.vcs + 1;
  Profile.incr "wp.vcs";
  match goal with
  | Term.Bool true -> ()
  | _ ->
      let grounds =
        List.filter_map (function FGround t -> Some t | _ -> None) st.facts
      in
      let foralls =
        List.filter_map (function FForall (b, t) -> Some (b, t) | _ -> None)
          st.facts
      in
      (* Staged, goal-directed instantiation: first try the ground
         facts alone (most VCs are plain arithmetic), then add one
         round of instantiations of the universal facts at the index
         terms appearing in the goal, then a second round at the terms
         the first round pulled in. *)
      let dbg = Sys.getenv_opt "WP_DEBUG" <> None in
      let t0 = if dbg then Unix.gettimeofday () else 0.0 in
      (* Relevance filter: only universal facts transitively connected
         to the goal's variables (through ground facts or other
         universals) are instantiated. Quantified facts about unrelated
         containers would otherwise flood the boolean skeleton and blow
         up the DPLL search. *)
      let foralls, grounds =
        let seed0 = container_var_set goal in
        if Term.VarSet.is_empty seed0 then
          (* scalar goal: no container chain to follow — keep everything
             (no sel-argument triggers exist, so instantiation stays
             empty and the query small) *)
          (foralls, grounds)
        else
        let seed = ref seed0 in
        let tagged_g =
          List.map (fun g -> (g, container_var_set g)) grounds
        in
        let tagged_f =
          List.map
            (fun (bs, b) ->
              let fv = container_var_set b in
              let fv =
                List.fold_left (fun fv (x, _) -> Term.VarSet.remove x fv) fv bs
              in
              ((bs, b), fv, ref false))
            foralls
        in
        let changed = ref true in
        while !changed do
          changed := false;
          List.iter
            (fun (_, fv) ->
              if
                Term.VarSet.exists (fun v -> Term.VarSet.mem v !seed) fv
                && not (Term.VarSet.subset fv !seed)
              then begin
                seed := Term.VarSet.union fv !seed;
                changed := true
              end)
            tagged_g;
          List.iter
            (fun (_, fv, kept) ->
              if
                (not !kept)
                && Term.VarSet.exists (fun v -> Term.VarSet.mem v !seed) fv
              then begin
                kept := true;
                seed := Term.VarSet.union fv !seed;
                changed := true
              end)
            tagged_f
        done;
        let kept_foralls =
          List.filter_map
            (fun (f, _, kept) -> if !kept then Some f else None)
            tagged_f
        in
        (* ground facts about unrelated containers only bloat the
           Ackermann expansion; scalar-only facts are kept *)
        let kept_grounds =
          List.filter_map
            (fun (g, cvs) ->
              if
                Term.VarSet.is_empty cvs
                || Term.VarSet.exists (fun v -> Term.VarSet.mem v !seed) cvs
              then Some g
              else None)
            tagged_g
        in
        (kept_foralls, kept_grounds)
      in
      let instantiated = ref [] in
      let seen = Hashtbl.create 64 in
      let candidates = Hashtbl.create 64 in
      collect_candidates candidates goal;
      let instantiate_round () =
        let cands =
          Hashtbl.fold (fun _ t acc -> t :: acc) candidates []
          |> List.filteri (fun i _ -> i < inst_cap)
        in
        List.iter
          (fun (binders, body) ->
            let rec combos = function
              | [] -> [ [] ]
              | (x, s) :: rest ->
                  let tails = combos rest in
                  List.concat_map
                    (fun c ->
                      if Sort.equal s Sort.Int then
                        List.map (fun tl -> (x, c) :: tl) tails
                      else [])
                    cands
            in
            List.iter
              (fun m ->
                let inst = Term.subst m body in
                let key = Term.to_string inst in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.add seen key ();
                  instantiated := inst :: !instantiated;
                  collect_candidates candidates inst
                end)
              (combos binders))
          foralls
      in
      let rec attempt round =
        let hyps = grounds @ !instantiated in
        (* same implication [entails_sliced] decides, but the abstract
           environment gets first crack at it (zero SMT when it hits) *)
        if Discharge.valid ck.config (Solver.sliced_implication hyps goal)
        then Some hyps
        else if round < ck.config.inst_rounds && foralls <> [] then begin
          instantiate_round ();
          attempt (round + 1)
        end
        else None
      in
      if dbg then
        Format.eprintf "[VC %d %s] start: %s@?" ck.vcs what
          (Term.to_string goal);
      let proved = attempt 0 in
      let ok = proved <> None in
      (match proved with
      | Some hyps when ck.certify ->
          (* the exact (sliced) implication the solver just accepted —
             what [--certify] will hand to [Solver.certify] *)
          ck.goals <-
            (ck.vcs, Solver.sliced_implication hyps goal) :: ck.goals
      | _ -> ());
      if dbg then
        Format.eprintf " ground=%d inst=%d %s %.2fs@." (List.length grounds)
          (List.length !instantiated)
          (if ok then "ok" else "FAIL")
          (Unix.gettimeofday () -. t0);
      if (not ok) && Sys.getenv_opt "WP_DEBUG" = Some "2" then begin
        List.iter
          (fun h -> Format.eprintf "  hyp: %s@." (Term.to_string h))
          (grounds @ !instantiated);
        List.iter
          (fun (bs, b) ->
            Format.eprintf "  forall %s. %s@."
              (String.concat "," (List.map fst bs))
              (Term.to_string b))
          foralls
      end;
      if not ok then begin
        let witness =
          if ck.certify then begin
            let w =
              Solver.counterexample
                (Solver.sliced_implication (grounds @ !instantiated) goal)
            in
            if w <> None then Profile.incr "cert.cex";
            w
          end
          else None
        in
        add_error ?witness ck span
          (Printf.sprintf "%s: cannot prove %s" what (Term.to_string goal))
      end

let assume (st : state) (f : fact) : state = { st with facts = f :: st.facts }
let assume_t st t = if t = Term.tt then st else assume st (FGround t)

(* ------------------------------------------------------------------ *)
(* Specification expression evaluation                                 *)
(* ------------------------------------------------------------------ *)

(** Evaluate a specification expression to a term (and side universal
    facts when used in assumption position). [env] maps spec variable
    names to terms (function parameters, forall binders). *)
type spec_cx = {
  sc_env : (string * Term.t) list;
  sc_old : (string * Term.t) list option;  (** pre-state, for old() *)
  sc_result : Term.t option;
}

let rec eval_spec ck (cx : spec_cx) (e : Ast.expr) : Term.t =
  let span = e.Ast.e_span in
  match e.Ast.e with
  | Ast.EInt n -> Term.int n
  | Ast.EFloat f -> Term.real f
  | Ast.EBool b -> Term.Bool b
  | Ast.EVar x -> (
      match List.assoc_opt x cx.sc_env with
      | Some t -> t
      | None -> werr span "unbound variable %s in specification" x)
  | Ast.EResult -> (
      match cx.sc_result with
      | Some t -> t
      | None -> werr span "result is only allowed in postconditions")
  | Ast.EOld inner -> (
      match cx.sc_old with
      | Some old_env -> eval_spec ck { cx with sc_env = old_env; sc_old = None } inner
      | None ->
          (* old() in preconditions or invariants: identity *)
          eval_spec ck cx inner)
  | Ast.EBin (op, a, b) -> (
      let ta = eval_spec ck cx a and tb = eval_spec ck cx b in
      match op with
      | Ast.Add -> Term.add ta tb
      | Ast.Sub -> Term.sub ta tb
      | Ast.Mul -> Term.mul ta tb
      | Ast.Div -> Term.div ta tb
      | Ast.Rem -> Term.md ta tb
      | Ast.Lt -> Term.lt ta tb
      | Ast.Le -> Term.le ta tb
      | Ast.Gt -> Term.gt ta tb
      | Ast.Ge -> Term.ge ta tb
      | Ast.EqOp -> Term.eq ta tb
      | Ast.NeOp -> Term.ne ta tb
      | Ast.AndOp -> Term.mk_and [ ta; tb ]
      | Ast.OrOp -> Term.mk_or [ ta; tb ]
      | Ast.ImpOp -> Term.mk_imp ta tb)
  | Ast.EUn (Ast.Not, a) -> Term.mk_not (eval_spec ck cx a)
  | Ast.EUn (Ast.NegOp, a) -> Term.neg (eval_spec ck cx a)
  | Ast.EMethod (recv, "len", []) -> len_of (eval_spec ck cx recv)
  | Ast.EMethod (recv, "lookup", [ i ]) ->
      sel (eval_spec ck cx recv) (eval_spec ck cx i)
  | Ast.EMethod (recv, "row_len", [ i ]) ->
      len_of (sel (eval_spec ck cx recv) (eval_spec ck cx i))
  | Ast.EForall (binders, body) ->
      (* only usable via eval_spec_fact; inside a term position we
         conservatively reject *)
      ignore (binders, body);
      werr span "forall must appear at the top level of a specification"
  | Ast.ECall (f, args) ->
      (* uninterpreted specification function *)
      Term.app ("sf_" ^ f) (List.map (eval_spec ck cx) args)
  | Ast.EDeref a -> eval_spec ck cx a
  | _ -> werr span "unsupported specification expression"

(** Evaluate a spec expression into facts (splits conjunctions, keeps
    top-level foralls quantified). *)
let rec eval_spec_fact ck (cx : spec_cx) (e : Ast.expr) : fact list =
  match e.Ast.e with
  | Ast.EBin (Ast.AndOp, a, b) ->
      eval_spec_fact ck cx a @ eval_spec_fact ck cx b
  | Ast.EForall (binders, body) ->
      let bvars =
        List.map
          (fun (x, t) ->
            let s =
              match t with
              | Ast.TInt _ -> Sort.Int
              | Ast.TBool -> Sort.Bool
              | _ -> Sort.Int
            in
            (x, s))
          binders
      in
      let env' =
        List.map (fun (x, s) -> (x, Term.Var ("!q_" ^ x, s))) bvars @ cx.sc_env
      in
      let body_t = eval_spec ck { cx with sc_env = env' } body in
      [ FForall (List.map (fun (x, s) -> ("!q_" ^ x, s)) bvars, body_t) ]
  | _ -> [ FGround (eval_spec ck cx e) ]

(** Evaluate a spec expression into a single checkable term, flattening
    foralls by skolemization-on-the-check side is unsound; instead we
    check foralls by proving the body under fresh rigid binders. *)
let eval_spec_goals ck (cx : spec_cx) (e : Ast.expr) :
    [ `Goal of Term.t | `ForallGoal of (string * Sort.t) list * Term.t ] list =
  let rec go e =
    match e.Ast.e with
    | Ast.EBin (Ast.AndOp, a, b) -> go a @ go b
    | Ast.EForall (binders, body) ->
        let bvars =
          List.map
            (fun (x, t) ->
              let s =
                match t with Ast.TInt _ -> Sort.Int | Ast.TBool -> Sort.Bool | _ -> Sort.Int
              in
              (x, Rty_fresh.fresh ("sk_" ^ x), s))
            binders
        in
        let env' =
          List.map (fun (x, y, s) -> (x, Term.Var (y, s))) bvars @ cx.sc_env
        in
        let body_t = eval_spec ck { cx with sc_env = env' } body in
        [ `ForallGoal (List.map (fun (_, y, s) -> (y, s)) bvars, body_t) ]
    | _ -> [ `Goal (eval_spec ck cx e) ]
  in
  go e

(* ------------------------------------------------------------------ *)
(* Symbolic evaluation of places and operands                          *)
(* ------------------------------------------------------------------ *)

let get_sym ck (st : state) span (l : int) : sym =
  match IMap.find_opt l st.vals with
  | Some s -> s
  | None -> werr span "local %s has no symbolic value" ck.body.Ir.mb_locals.(l).Ir.ld_name

(** The term denoted by a symbolic value (reads through references). *)
let rec sym_term ck (st : state) span (s : sym) : Term.t =
  match s with
  | SVal t -> t
  | SRef (root, None) -> sym_term ck st span (get_sym ck st span root)
  | SRef (root, Some i) ->
      sel (sym_term ck st span (get_sym ck st span root)) i

let place_sym ck (st : state) span (p : Ir.place) : sym =
  let rec go (s : sym) = function
    | [] -> s
    | Ir.PDeref :: rest -> (
        match s with
        | SRef (root, None) -> go (get_sym ck st span root) rest
        | SRef (root, Some i) ->
            go (SVal (sel (sym_term ck st span (get_sym ck st span root)) i)) rest
        | SVal v -> go (SVal v) rest (* value-modeled reference *))
    | Ir.PField _ :: _ ->
        werr span "the baseline verifier does not model struct fields directly"
  in
  go (get_sym ck st span p.Ir.base) p.Ir.projs

let operand_sym ck (st : state) span (op : Ir.operand) : sym =
  match op with
  | Ir.Const (Ir.CInt (n, _)) -> SVal (Term.int n)
  | Ir.Const (Ir.CBool b) -> SVal (Term.Bool b)
  | Ir.Const (Ir.CFloat f) -> SVal (Term.real f)
  | Ir.Const Ir.CUnit -> SVal (Term.int 0)
  | Ir.Copy p | Ir.Move p -> place_sym ck st span p

let operand_term ck st span op = sym_term ck st span (operand_sym ck st span op)

(** McCarthy update: produce a new version of [old_v] with slot [i] set
    to [e]; returns the new value and its defining facts. *)
let store_facts ~(old_v : Term.t) ~(new_v : Term.t) (i : Term.t) (e : Term.t) :
    fact list =
  let j = Term.var (Rty_fresh.fresh "!j") in
  [
    FGround (Term.eq (len_of new_v) (len_of old_v));
    FGround (Term.eq (sel new_v i) e);
    FForall
      ( [ (Term.to_string j, Sort.Int) ],
        Term.mk_imp
          (Term.mk_and
             [
               Term.le (Term.int 0) j;
               Term.lt j (len_of old_v);
               Term.ne j i;
             ])
          (Term.eq (sel new_v j) (sel old_v j)) );
  ]

(** Write a symbolic value through a place. *)
let write_place ck (st : state) span (p : Ir.place) (rhs : sym) : state =
  if p.Ir.projs = [] then { st with vals = IMap.add p.Ir.base rhs st.vals }
  else
    match (p.Ir.projs, get_sym ck st span p.Ir.base) with
    | [ Ir.PDeref ], SRef (root, None) ->
        { st with vals = IMap.add root rhs st.vals }
    | [ Ir.PDeref ], SRef (root, Some i) ->
        let old_v = sym_term ck st span (get_sym ck st span root) in
        let new_v = fresh_val "!v" in
        let e = sym_term ck st span rhs in
        let st = List.fold_left assume st (store_facts ~old_v ~new_v i e) in
        { st with vals = IMap.add root (SVal new_v) st.vals }
    | [ Ir.PDeref ], SVal _ ->
        (* ref parameter root: replace the pointee *)
        { st with vals = IMap.add p.Ir.base rhs st.vals }
    | _ -> werr span "unsupported write target in the baseline verifier"

(* ------------------------------------------------------------------ *)
(* Type facts                                                          *)
(* ------------------------------------------------------------------ *)

(** Well-formedness facts for a fresh value of a given Rust type:
    usizes and lengths are non-negative, recursively for vector
    elements. *)
let rec type_facts (ty : Ast.ty) (v : Term.t) : fact list =
  match ty with
  | Ast.TInt Ast.Usize -> [ FGround (Term.ge v (Term.int 0)) ]
  | Ast.TVec elt ->
      let base = [ FGround (Term.ge (len_of v) (Term.int 0)) ] in
      let j = Term.var (Rty_fresh.fresh "!j") in
      let elt_facts = type_facts elt (sel v j) in
      let quantified =
        List.filter_map
          (function
            | FGround body ->
                Some
                  (FForall
                     ( [ (Term.to_string j, Sort.Int) ],
                       Term.mk_imp
                         (Term.mk_and
                            [ Term.le (Term.int 0) j; Term.lt j (len_of v) ])
                         body ))
            | FForall _ -> None (* depth 2 facts are rarely needed *))
          elt_facts
      in
      base @ quantified
  | Ast.TRef (_, inner) -> type_facts inner v
  | _ -> []

let havoc_local ck (st : state) (l : int) : state =
  let decl = ck.body.Ir.mb_locals.(l) in
  let v = fresh_val ("!h_" ^ decl.Ir.ld_name) in
  let st = { st with vals = IMap.add l (SVal v) st.vals } in
  List.fold_left assume st (type_facts decl.Ir.ld_ty v)

(* ------------------------------------------------------------------ *)
(* Loop structure                                                      *)
(* ------------------------------------------------------------------ *)

(** Natural loop of header [h]: [h] plus the blocks that reach a back
    edge [p → h] (where [h] dominates [p]) without passing through
    [h]. *)
let natural_loop (_body : Ir.body) (preds : int list array)
    (dom : bool array array) (h : int) : (int, unit) Hashtbl.t =
  let loop = Hashtbl.create 8 in
  Hashtbl.replace loop h ();
  let back_sources = List.filter (fun p -> dom.(p).(h)) preds.(h) in
  let rec add b =
    if not (Hashtbl.mem loop b) then begin
      Hashtbl.replace loop b ();
      List.iter add preds.(b)
    end
  in
  List.iter add back_sources;
  loop

(** Locals assigned anywhere within the given block set. *)
let loop_defs (body : Ir.body) (loop : (int, unit) Hashtbl.t) : int list =
  let defs = Hashtbl.create 16 in
  Hashtbl.iter
    (fun b () ->
      let blk = body.Ir.mb_blocks.(b) in
      List.iter
        (function
          | Ir.SAssign (p, rv, _) ->
              Hashtbl.replace defs p.Ir.base ();
              (* a mutable borrow taken inside the loop means its target
                 may be mutated (method receivers, get_mut stores) *)
              (match rv with
              | Ir.RRef (Flux_syntax.Ast.Mut, tgt) ->
                  Hashtbl.replace defs tgt.Ir.base ()
              | _ -> ())
          | _ -> ())
        blk.Ir.stmts;
      match blk.Ir.term with
      | Ir.TCall { tc_dest; _ } -> Hashtbl.replace defs tc_dest.Ir.base ()
      | _ -> ())
    loop;
  Hashtbl.fold (fun l () acc -> l :: acc) defs []

(** The [body_invariant!] expressions at the head of a block. *)
let invariants_of (body : Ir.body) (bb : int) : (Ast.expr * Ast.span) list =
  List.filter_map
    (function Ir.SInvariant (e, sp) -> Some (e, sp) | _ -> None)
    body.Ir.mb_blocks.(bb).Ir.stmts

(* ------------------------------------------------------------------ *)
(* Specification context helpers                                       *)
(* ------------------------------------------------------------------ *)

(** Environment mapping source-visible names to current values. *)
let name_env ck (st : state) span : (string * Term.t) list =
  let out = ref [] in
  Array.iteri
    (fun l (decl : Ir.local_decl) ->
      match decl.Ir.ld_kind with
      | Ir.KArg | Ir.KUser -> (
          match IMap.find_opt l st.vals with
          | Some s -> out := (decl.Ir.ld_name, sym_term ck st span s) :: !out
          | None -> ())
      | _ -> ())
    ck.body.Ir.mb_locals;
  !out

let check_spec_goals ck st span ~what (cx : spec_cx) (e : Ast.expr) : unit =
  List.iter
    (function
      | `Goal g -> check_vc ck st span ~what g
      | `ForallGoal (binders, body) ->
          (* prove the body for fresh rigid binders (non-negative, as
             they quantify over usize indices) *)
          let st' =
            List.fold_left
              (fun st (x, s) ->
                if Sort.equal s Sort.Int then
                  assume_t st (Term.ge (Term.var x) (Term.int 0))
                else st)
              st binders
          in
          check_vc ck st' span ~what body)
    (eval_spec_goals ck cx e)

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)
(* ------------------------------------------------------------------ *)

(** Bounds obligation for a vector access. *)
let check_bounds ck st span ~what (i : Term.t) (v : Term.t) : unit =
  check_vc ck st span ~what (Term.ge i (Term.int 0));
  check_vc ck st span ~what (Term.lt i (len_of v))

(** The root local and slot of a receiver temp. *)
let receiver ck st span (op : Ir.operand) : int * Term.t option =
  match operand_sym ck st span op with
  | SRef (root, idx) -> (root, idx)
  | SVal _ -> werr span "receiver is not a tracked reference"

let recv_value ck st span (root, idx) =
  let base = sym_term ck st span (get_sym ck st span root) in
  match idx with None -> base | Some i -> sel base i

(** Replace the value a receiver designates: for a direct vector,
    rebind the root; for an element, store a fresh element and frame
    the rest. *)
let set_recv_value ck st span (root, idx) (new_v : Term.t) : state =
  match idx with
  | None -> (
      match get_sym ck st span root with
      | SRef (r2, None) -> { st with vals = IMap.add r2 (SVal new_v) st.vals }
      | _ -> { st with vals = IMap.add root (SVal new_v) st.vals })
  | Some i ->
      let old_outer = sym_term ck st span (get_sym ck st span root) in
      let new_outer = fresh_val "!v" in
      let st = List.fold_left assume st (store_facts ~old_v:old_outer ~new_v:new_outer i new_v) in
      { st with vals = IMap.add root (SVal new_outer) st.vals }

let exec_vec_call ck (st : state) span (m : string) (args : Ir.operand list)
    (dest : Ir.place) : state =
  match (m, args) with
  | "len", [ recv ] ->
      let v = recv_value ck st span (receiver ck st span recv) in
      write_place ck st span dest (SVal (len_of v))
  | "is_empty", [ recv ] ->
      let v = recv_value ck st span (receiver ck st span recv) in
      write_place ck st span dest (SVal (Term.eq (len_of v) (Term.int 0)))
  | "get", [ recv; idx ] ->
      let r = receiver ck st span recv in
      let v = recv_value ck st span r in
      let i = operand_term ck st span idx in
      check_bounds ck st span ~what:"RVec::get" i v;
      write_place ck st span dest (SVal (sel v i))
  | "get_mut", [ recv; idx ] -> (
      let root, slot = receiver ck st span recv in
      let v = recv_value ck st span (root, slot) in
      let i = operand_term ck st span idx in
      check_bounds ck st span ~what:"RVec::get_mut" i v;
      match slot with
      | None -> (
          (* reference to element i of the vector at root *)
          match get_sym ck st span root with
          | SRef (r2, None) -> write_place ck st span dest (SRef (r2, Some i))
          | SVal _ -> write_place ck st span dest (SRef (root, Some i))
          | SRef (_, Some _) ->
              werr span "nested mutable element references are not supported")
      | Some _ ->
          werr span "nested mutable element references are not supported")
  | "push", [ recv; value ] ->
      let r = receiver ck st span recv in
      let v = recv_value ck st span r in
      let e = operand_term ck st span value in
      let v' = fresh_val "!v" in
      let j = Term.var (Rty_fresh.fresh "!j") in
      let st =
        List.fold_left assume st
          [
            FGround (Term.eq (len_of v') (Term.add (len_of v) (Term.int 1)));
            FGround (Term.eq (sel v' (len_of v)) e);
            FForall
              ( [ (Term.to_string j, Sort.Int) ],
                Term.mk_imp
                  (Term.mk_and
                     [ Term.le (Term.int 0) j; Term.lt j (len_of v) ])
                  (Term.eq (sel v' j) (sel v j)) );
          ]
      in
      let st = set_recv_value ck st span r v' in
      write_place ck st span dest (SVal (Term.int 0))
  | "pop", [ recv ] ->
      let r = receiver ck st span recv in
      let v = recv_value ck st span r in
      check_vc ck st span ~what:"RVec::pop"
        (Term.gt (len_of v) (Term.int 0));
      let v' = fresh_val "!v" in
      let j = Term.var (Rty_fresh.fresh "!j") in
      let st =
        List.fold_left assume st
          [
            FGround (Term.eq (len_of v') (Term.sub (len_of v) (Term.int 1)));
            FForall
              ( [ (Term.to_string j, Sort.Int) ],
                Term.mk_imp
                  (Term.mk_and
                     [ Term.le (Term.int 0) j; Term.lt j (len_of v') ])
                  (Term.eq (sel v' j) (sel v j)) );
          ]
      in
      let st = set_recv_value ck st span r v' in
      write_place ck st span dest
        (SVal (sel v (Term.sub (len_of v) (Term.int 1))))
  | "swap", [ recv; i1; i2 ] ->
      let r = receiver ck st span recv in
      let v = recv_value ck st span r in
      let a = operand_term ck st span i1 in
      let b = operand_term ck st span i2 in
      check_bounds ck st span ~what:"RVec::swap" a v;
      check_bounds ck st span ~what:"RVec::swap" b v;
      let v' = fresh_val "!v" in
      let j = Term.var (Rty_fresh.fresh "!j") in
      let st =
        List.fold_left assume st
          [
            FGround (Term.eq (len_of v') (len_of v));
            FGround (Term.eq (sel v' a) (sel v b));
            FGround (Term.eq (sel v' b) (sel v a));
            FForall
              ( [ (Term.to_string j, Sort.Int) ],
                Term.mk_imp
                  (Term.mk_and
                     [
                       Term.le (Term.int 0) j;
                       Term.lt j (len_of v);
                       Term.ne j a;
                       Term.ne j b;
                     ])
                  (Term.eq (sel v' j) (sel v j)) );
          ]
      in
      let st = set_recv_value ck st span r v' in
      write_place ck st span dest (SVal (Term.int 0))
  | "clone", [ recv ] ->
      let v = recv_value ck st span (receiver ck st span recv) in
      write_place ck st span dest (SVal v)
  | _ -> werr span "unknown RVec method %s in the baseline" m

(** Execute a user function call: check its preconditions, havoc what
    it may mutate (framing element updates), assume its postconditions. *)
let exec_user_call ck (st : state) span (fd : Ast.fn_def)
    (args : Ir.operand list) (dest : Ir.place) : state =
  if List.length args <> List.length fd.Ast.fn_params then
    werr span "%s: arity mismatch" fd.Ast.fn_name;
  let arg_syms = List.map (operand_sym ck st span) args in
  let pre_env =
    List.map2
      (fun (x, _) s -> (x, sym_term ck st span s))
      fd.Ast.fn_params arg_syms
  in
  (* preconditions *)
  List.iter
    (fun r ->
      check_spec_goals ck st span
        ~what:(fd.Ast.fn_name ^ ": precondition")
        { sc_env = pre_env; sc_old = None; sc_result = None }
        r)
    fd.Ast.fn_contract.Ast.c_requires;
  (* havoc mutable arguments *)
  let st = ref st in
  let post_env =
    List.map2
      (fun (x, ty) s ->
        match (ty, s) with
        | Ast.TRef (Ast.Mut, _), SRef (root, None) ->
            let v' = fresh_val "!post" in
            st := set_recv_value ck !st span (root, None) v';
            (x, v')
        | Ast.TRef (Ast.Mut, _), SRef (root, Some i) ->
            (* element of a container: fresh element value, frame the
               others (ownership guarantees the callee only touches the
               borrowed element) *)
            let v' = fresh_val "!post" in
            st := set_recv_value ck !st span (root, Some i) v';
            (x, v')
        | Ast.TRef (Ast.Mut, _), SVal _ ->
            (* opaque mutable value (e.g. a trusted struct): havoc *)
            let v' = fresh_val "!post" in
            (x, v')
        | _, s -> (x, sym_term ck !st span s))
      fd.Ast.fn_params arg_syms
  in
  (* opaque &mut values passed by value-model must be written back *)
  List.iteri
    (fun i ((_, ty), s) ->
      match (ty, s) with
      | Ast.TRef (Ast.Mut, _), SVal _ -> (
          match List.nth args i with
          | Ir.Copy p | Ir.Move p when p.Ir.projs = [] ->
              let x = fst (List.nth fd.Ast.fn_params i) in
              let v' = List.assoc x post_env in
              st := { !st with vals = IMap.add p.Ir.base (SVal v') !st.vals }
          | _ -> ())
      | _ -> ())
    (List.combine fd.Ast.fn_params arg_syms);
  (* result *)
  let result = fresh_val "!ret" in
  let st' = write_place ck !st span dest (SVal result) in
  let st' =
    List.fold_left assume st'
      (List.concat_map (fun ty_fact -> ty_fact)
         [ type_facts fd.Ast.fn_ret result ])
  in
  (* postconditions *)
  let st' =
    List.fold_left
      (fun st e ->
        List.fold_left assume st
          (eval_spec_fact ck
             { sc_env = post_env; sc_old = Some pre_env; sc_result = Some result }
             e))
      st' fd.Ast.fn_contract.Ast.c_ensures
  in
  st'

(* ------------------------------------------------------------------ *)
(* Block execution                                                     *)
(* ------------------------------------------------------------------ *)

let rec exec_block ck (st : state) (bb : int) : unit =
  let body = ck.body in
  if body.Ir.mb_loop_heads.(bb) then begin
    let invs = invariants_of body bb in
    let span =
      match invs with (_, sp) :: _ -> sp | [] -> body.Ir.mb_span
    in
    (* the arriving state must establish every invariant; old(..)
       refers to the function entry state, as in Prusti *)
    let env = name_env ck st span in
    List.iter
      (fun (inv, sp) ->
        check_spec_goals ck st sp ~what:"loop invariant (entry/preservation)"
          { sc_env = env; sc_old = ck.entry_env; sc_result = None }
          inv)
      invs;
    if not (Hashtbl.mem ck.processed_headers bb) then begin
      Hashtbl.replace ck.processed_headers bb ();
      (* havoc everything the loop assigns, then assume the invariants *)
      let defs = loop_defs body ck.loop_blocks.(bb) in
      let st = List.fold_left (fun st l -> havoc_local ck st l) st defs in
      let env = name_env ck st span in
      let st =
        List.fold_left
          (fun st (inv, _) ->
            List.fold_left assume st
              (eval_spec_fact ck
                 { sc_env = env; sc_old = ck.entry_env; sc_result = None }
                 inv))
          st invs
      in
      exec_stmts ck st bb
    end
  end
  else exec_stmts ck st bb

and exec_stmts ck (st : state) (bb : int) : unit =
  let blk = ck.body.Ir.mb_blocks.(bb) in
  let st =
    List.fold_left
      (fun st s ->
        match s with
        | Ir.SNop | Ir.SInvariant _ -> st
        | Ir.SAssign (dest, rv, span) -> exec_assign ck st span dest rv)
      st blk.Ir.stmts
  in
  exec_term ck st blk.Ir.term

and exec_assign ck (st : state) span (dest : Ir.place) (rv : Ir.rvalue) : state
    =
  match rv with
  | Ir.RUse op -> write_place ck st span dest (operand_sym ck st span op)
  | Ir.RBin (op, a, b) ->
      let ta = operand_term ck st span a in
      let tb = operand_term ck st span b in
      let dest_is_usize =
        dest.Ir.base < Array.length ck.body.Ir.mb_locals
        && ck.body.Ir.mb_locals.(dest.Ir.base).Ir.ld_ty = Ast.TInt Ast.Usize
        && dest.Ir.projs = []
      in
      let t =
        match op with
        | Ast.Add -> Term.add ta tb
        | Ast.Sub ->
            (* both verifiers share the math-integer model, so usize
               subtraction is checked for underflow here as in the
               Flux checker *)
            if dest_is_usize then
              check_vc ck st span ~what:"usize subtraction (underflow)"
                (Term.le tb ta);
            Term.sub ta tb
        | Ast.Mul -> Term.mul ta tb
        | Ast.Div -> Term.div ta tb
        | Ast.Rem -> Term.md ta tb
        | Ast.Lt -> Term.lt ta tb
        | Ast.Le -> Term.le ta tb
        | Ast.Gt -> Term.gt ta tb
        | Ast.Ge -> Term.ge ta tb
        | Ast.EqOp -> Term.eq ta tb
        | Ast.NeOp -> Term.ne ta tb
        | Ast.AndOp -> Term.mk_and [ ta; tb ]
        | Ast.OrOp -> Term.mk_or [ ta; tb ]
        | Ast.ImpOp -> werr span "==> in program code"
      in
      write_place ck st span dest (SVal t)
  | Ir.RUn (Ast.Not, a) ->
      write_place ck st span dest (SVal (Term.mk_not (operand_term ck st span a)))
  | Ir.RUn (Ast.NegOp, a) ->
      write_place ck st span dest (SVal (Term.neg (operand_term ck st span a)))
  | Ir.RRef (_, p) -> (
      match p.Ir.projs with
      | [] -> write_place ck st span dest (SRef (p.Ir.base, None))
      | [ Ir.PDeref ] -> (
          match get_sym ck st span p.Ir.base with
          | SRef _ as s -> write_place ck st span dest s
          | SVal _ -> write_place ck st span dest (SRef (p.Ir.base, None)))
      | _ -> werr span "unsupported borrow in the baseline verifier")
  | Ir.RAggregate (_, _) -> write_place ck st span dest (SVal (fresh_val "!agg"))

and exec_term ck (st : state) (term : Ir.terminator) : unit =
  let body = ck.body in
  match term with
  | Ir.TGoto s -> exec_block ck st s
  | Ir.TSwitch (op, s_then, s_else) ->
      let c = operand_term ck st body.Ir.mb_span op in
      exec_block ck (assume_t st c) s_then;
      exec_block ck (assume_t st (Term.mk_not c)) s_else
  | Ir.TUnreachable ->
      check_vc ck st body.Ir.mb_span ~what:"assertion" Term.ff
  | Ir.TReturn ->
      (* check the function's postconditions *)
      let span = body.Ir.mb_span in
      let env = name_env ck st span in
      let result = sym_term ck st span (get_sym ck st span 0) in
      let old_env =
        match ck.entry_env with Some e -> e | None -> env
      in
      List.iter
        (fun e ->
          check_spec_goals ck st span ~what:"postcondition"
            { sc_env = env; sc_old = Some old_env; sc_result = Some result }
            e)
        ck.fd.Ast.fn_contract.Ast.c_ensures
  | Ir.TCall { tc_func; tc_args; tc_dest; tc_target; tc_span } ->
      let st =
        if String.equal tc_func "RVec::new" then begin
          let v = fresh_val "!new" in
          let st = assume_t st (Term.eq (len_of v) (Term.int 0)) in
          write_place ck st tc_span tc_dest (SVal v)
        end
        else if String.length tc_func > 6 && String.sub tc_func 0 6 = "RVec::"
        then
          exec_vec_call ck st tc_span
            (String.sub tc_func 6 (String.length tc_func - 6))
            tc_args tc_dest
        else
          match Ast.find_fn ck.prog tc_func with
          | Some fd -> exec_user_call ck st tc_span fd tc_args tc_dest
          | None -> werr tc_span "unknown function %s" tc_func
      in
      exec_block ck st tc_target

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let verify_body ?(config = Config.default) ?(certify = false)
    (prog : Ast.program) (fd : Ast.fn_def) (body : Ir.body) : fn_report =
  Profile.with_fn fd.Ast.fn_name @@ fun () ->
  Profile.time "wp.fn_s" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (* Per-function determinism, as in [Checker.check_body]: generated
     names restart at zero so VCs are independent of check order and
     of the domain running the check. *)
  Rty_fresh.reset ();
  let preds = Ir.predecessors body in
  let dom = Ir.dominators body in
  let loop_blocks =
    Array.init (Array.length body.Ir.mb_blocks) (fun h ->
        if body.Ir.mb_loop_heads.(h) then natural_loop body preds dom h
        else Hashtbl.create 1)
  in
  let ck =
    {
      prog;
      body;
      fd;
      errors = [];
      vcs = 0;
      preds;
      loop_blocks;
      processed_headers = Hashtbl.create 8;
      entry_env = None;
      certify;
      config;
      goals = [];
    }
  in
  (try
     (* initial state: parameters get fresh values with type facts *)
     let st = ref { vals = IMap.empty; facts = [] } in
     Array.iteri
       (fun l (decl : Ir.local_decl) ->
         match decl.Ir.ld_kind with
         | Ir.KArg ->
             let v = fresh_val decl.Ir.ld_name in
             st := { !st with vals = IMap.add l (SVal v) !st.vals };
             st := List.fold_left assume !st (type_facts decl.Ir.ld_ty v)
         | Ir.KReturn | Ir.KUser | Ir.KTemp ->
             st := { !st with vals = IMap.add l (SVal (fresh_val "!u")) !st.vals })
       body.Ir.mb_locals;
     let env = name_env ck !st body.Ir.mb_span in
     ck.entry_env <- Some env;
     (* assume the preconditions *)
     List.iter
       (fun r ->
         st :=
           List.fold_left assume !st
             (eval_spec_fact ck
                { sc_env = env; sc_old = None; sc_result = None }
                r))
       fd.Ast.fn_contract.Ast.c_requires;
     exec_block ck !st 0
   with Wp_error (msg, span) -> add_error ck span msg);
  {
    fr_name = fd.Ast.fn_name;
    fr_errors = List.rev ck.errors;
    fr_vcs = ck.vcs;
    fr_time = Unix.gettimeofday () -. t0;
    fr_goals = List.rev ck.goals;
  }

type report = { rp_fns : fn_report list; rp_time : float }

let report_ok r = List.for_all fn_ok r.rp_fns
let report_errors r = List.concat_map (fun fr -> fr.fr_errors) r.rp_fns

let verify_program_ast ?config ?certify (prog : Ast.program) : report =
  let t0 = Unix.gettimeofday () in
  let bodies = Flux_mir.Lower.lower_program prog in
  let fns =
    List.filter_map
      (fun (fd : Ast.fn_def) ->
        if fd.Ast.fn_trusted then None
        else
          match List.assoc_opt fd.Ast.fn_name bodies with
          | Some body -> Some (verify_body ?config ?certify prog fd body)
          | None -> None)
      (Ast.program_fns prog)
  in
  { rp_fns = fns; rp_time = Unix.gettimeofday () -. t0 }

(** Parse, typecheck, lower and verify a source string with the
    Prusti-style baseline. *)
let verify_source ?config ?certify (src : string) : report =
  let prog = Flux_syntax.Parser.parse_program src in
  Flux_syntax.Typeck.check_program prog;
  verify_program_ast ?config ?certify prog
