(** The Flux refinement checker: the algorithmic system of §4.

    The checker walks each function's MIR in reverse postorder carrying
    a refinement environment (rigid refinement variables + path
    predicates + a location typing for every local). Three phases, as
    in the paper:

    + {b Spatial/shape} — join blocks (loop headers and other
      multi-predecessor blocks) get a {e template environment}: every
      live local keeps its unrefined shape while every index position
      becomes a fresh existential constrained by a fresh κ variable
      over the join's "ghost" variables (§4.2 phase 1).
    + {b Checking} — straight-line code is checked against the
      declarative rules, strong updates for exclusively-owned
      locations, weak updates through references, and κ-template
      instantiation for polymorphic library calls (§4.3). Every
      obligation becomes a flat Horn clause.
    + {b Inference} — the clauses go to the liquid fixpoint solver;
      failures are mapped back to source spans. *)

open Flux_smt
open Flux_fixpoint
open Flux_rtype
open Rty
module Ast = Flux_syntax.Ast
module Ir = Flux_mir.Ir
module Liveness = Flux_mir.Liveness
module IMap = Map.Make (Int)

type error = {
  err_fn : string;
  err_span : Ast.span;
  err_msg : string;
  err_witness : (string * Eval.value) list option;
      (** a verified falsifying assignment for the failed obligation
          (constraint-level variables), present under [--certify] *)
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
  fr_solution : Solve.solution option;
  fr_kvars : int;
  fr_clauses : int;
  fr_time : float;
}

let fn_ok r = r.fr_errors = []

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)
(* ------------------------------------------------------------------ *)

type env = {
  binders : (string * Sort.t) list;
  hyps : Horn.pred list;
  locals : rty IMap.t;
}

let cx_of (env : env) : Sub.cx = { Sub.binders = env.binders; hyps = env.hyps }

(* ------------------------------------------------------------------ *)
(* Lint side channel                                                   *)
(* ------------------------------------------------------------------ *)

(** Facts the checker can record for the lint passes as it walks a body
    — the concrete entry hypotheses of every checked block, the blocks
    it never reached, which κs each join template declared, and overflow
    side conditions. Collecting them here (rather than re-walking the
    MIR in [lib/analysis]) keeps the lint passes in exact agreement with
    what the checker proved. The channel is off during plain
    verification, and recording never adds clauses or tags, so a lint
    run produces the same [fn_report] as a plain one. *)
type lint_info = {
  li_precond : Term.t list;
      (** the function's assumed entry context: resolved preconditions
          plus argument index invariants (unsat = vacuous spec) *)
  li_blocks : (int * Term.t list) list;
      (** per checked block: the concrete (κ-free) entry hypotheses —
          an over-approximation of the block's path condition, so unsat
          implies the block is unreachable *)
  li_dead_blocks : int list;
      (** blocks the checker never flowed into (structurally dead) *)
  li_join_kvars : (int * string list) list;
      (** per join block: κ names declared for its template *)
  li_overflow : (Ast.span * string * Horn.clause) list;
      (** machine-int range side conditions, to be evaluated against
          the final solution with {!Solve.check_clause} *)
  li_kvars : Horn.kvar list;
      (** all κ declarations of the body (for clause evaluation) *)
}

type lint_acc = {
  mutable la_precond : Term.t list;
  mutable la_blocks : (int * Term.t list) list;
  mutable la_dead : int list;
  la_join_kvars : (int, string list) Hashtbl.t;
  mutable la_overflow : (Ast.span * string * Horn.clause) list;
}

(* ------------------------------------------------------------------ *)
(* Checker state                                                       *)
(* ------------------------------------------------------------------ *)

type ck = {
  genv : Genv.t;
  body : Ir.body;
  live : Liveness.t;
  fsig : Specconv.fsig;
  mutable clauses : Horn.clause list;
  mutable kvars : Horn.kvar list;
  tags : (int, Ast.span * string) Hashtbl.t;
  mutable next_tag : int;
  mutable errors : error list;
  (* shadow locals backing &strg parameters (ids beyond the MIR locals) *)
  shadow_tys : (int, Ast.ty) Hashtbl.t;
  mutable next_shadow : int;
  strg_args : (int, int) Hashtbl.t;
      (** argument local → shadow local backing a &strg parameter *)
  (* per-join-block: template binders (for per-pred substitution) and
     the template local typing *)
  templates : (int, (string * Sort.t) list * rty IMap.t) Hashtbl.t;
  pending : (int, env) Hashtbl.t;  (** entry envs of single-pred blocks *)
  lint : lint_acc option;  (** lint side channel ([None] when verifying) *)
}

(** The concrete (κ-free) hypotheses of an environment. *)
let conc_hyps (env : env) : Term.t list =
  List.filter_map
    (function Horn.Conc t -> Some t | Horn.Kapp _ -> None)
    env.hyps

exception Check_error of string * Ast.span

let cerr span fmt = Format.kasprintf (fun s -> raise (Check_error (s, span))) fmt

let new_tag ck span msg =
  let t = ck.next_tag in
  ck.next_tag <- t + 1;
  Hashtbl.replace ck.tags t (span, msg);
  t

let add_clauses ck cls = ck.clauses <- List.rev_append cls ck.clauses

let declare_kvar ck kv = ck.kvars <- kv :: ck.kvars

let local_name ck (l : int) : string =
  if l < Array.length ck.body.Ir.mb_locals then
    ck.body.Ir.mb_locals.(l).Ir.ld_name
  else Printf.sprintf "*strg_%d" l

let local_shape ck (l : int) : Ast.ty =
  if l < Array.length ck.body.Ir.mb_locals then Ir.local_ty ck.body l
  else Hashtbl.find ck.shadow_tys l

let new_shadow ck (shape : Ast.ty) : int =
  let id = ck.next_shadow in
  ck.next_shadow <- id + 1;
  Hashtbl.replace ck.shadow_tys id shape;
  id

(* ------------------------------------------------------------------ *)
(* Binding types into the environment                                  *)
(* ------------------------------------------------------------------ *)

(** Assume the index invariants of an [Ix]-form type (non-negativity of
    usize and vector lengths, struct invariants). *)
let rec invariant_hyps ck (t : rty) : Horn.pred list =
  match t with
  | TBase (b, Ix ts) ->
      List.map (fun p -> Horn.Conc p) (index_invariants ck.genv.Genv.senv b ts)
  | TRef (_, t') -> invariant_hyps ck t'
  | _ -> []

(** Normalize a type into [Ix] form, extending the environment with the
    unpacked binders and hypotheses (plus invariants). References are
    left packed — their pointee is re-unpacked at each read. *)
let bind_rty ck (env : env) (t : rty) : env * rty =
  match t with
  | TBase (b, Ex (bs, ps)) ->
      let fresh_bs, hyp_ps, b', ts = Sub.unpack ck.genv.Genv.senv b bs ps in
      ( {
          env with
          binders = env.binders @ fresh_bs;
          hyps = env.hyps @ hyp_ps;
        },
        TBase (b', Ix ts) )
  | TBase (_, Ix _) | TRef _ ->
      ({ env with hyps = env.hyps @ invariant_hyps ck t }, t)
  | _ -> (env, t)

let set_local (env : env) l t = { env with locals = IMap.add l t env.locals }

let get_local ck (env : env) span l : rty =
  match IMap.find_opt l env.locals with
  | Some t -> t
  | None ->
      cerr span "internal: local %s has no refinement type"
        (if l < Array.length ck.body.Ir.mb_locals then
           ck.body.Ir.mb_locals.(l).Ir.ld_name
         else Printf.sprintf "shadow_%d" l)

(* ------------------------------------------------------------------ *)
(* Places                                                              *)
(* ------------------------------------------------------------------ *)

(** Chase strong pointers: if [place] starts with a [TPtr] local
    followed by a deref, redirect to the pointee place. *)
let rec resolve_place ck (env : env) span (p : Ir.place) : Ir.place =
  match (IMap.find_opt p.Ir.base env.locals, p.Ir.projs) with
  | Some (TPtr (_, target)), Ir.PDeref :: rest ->
      resolve_place ck env span
        { Ir.base = target.Ir.base; Ir.projs = target.Ir.projs @ rest }
  | _ -> p

(** Read the type at a place, unpacking any existential encountered on
    the way (reference pointees, container fields). Returns the
    extended environment and the [Ix]-normalized type of the value. *)
let rec read_place ck (env : env) span (p : Ir.place) : env * rty =
  let p = resolve_place ck env span p in
  let t0 = get_local ck env span p.Ir.base in
  let rec go env (t : rty) (projs : Ir.proj list) : env * rty =
    match projs with
    | [] -> bind_rty ck env t
    | Ir.PDeref :: rest -> (
        match t with
        | TRef (_, t') ->
            let env, t'' = bind_rty ck env t' in
            go env t'' rest
        | TPtr (_, target) ->
            (* pointer chains not collapsed by resolve_place (pointer
               read through a projection) *)
            let env, t' = read_place ck env span target in
            go env t' rest
        | _ -> cerr span "cannot dereference a value of type %s" (to_string t))
    | Ir.PField f :: rest -> (
        match t with
        | TBase (BStruct s, Ix ts) -> (
            match Hashtbl.find_opt ck.genv.Genv.senv s with
            | None -> cerr span "unknown struct %s" s
            | Some si -> (
                match List.assoc_opt f si.si_fields with
                | None -> cerr span "struct %s has no field %s" s f
                | Some fty ->
                    let m =
                      List.map2 (fun (x, _) t -> (x, t)) si.si_params ts
                    in
                    let env, fty = bind_rty ck env (subst_rty m fty) in
                    go env fty rest))
        | _ -> cerr span "cannot access field %s of %s" f (to_string t))
  in
  go env t0 p.Ir.projs

let read_operand ck (env : env) span (op : Ir.operand) : env * rty =
  match op with
  | Ir.Const (Ir.CInt (n, k)) -> (env, TBase (BInt k, Ix [ Term.int n ]))
  | Ir.Const (Ir.CBool b) -> (env, TBase (BBool, Ix [ Term.Bool b ]))
  | Ir.Const (Ir.CFloat _) -> (env, TBase (BFloat, Ix []))
  | Ir.Const Ir.CUnit -> (env, TBase (BUnit, Ix []))
  | Ir.Copy p -> read_place ck env span p
  | Ir.Move p ->
      let env, t = read_place ck env span p in
      let p' = resolve_place ck env span p in
      let env =
        if p'.Ir.projs = [] then
          set_local env p'.Ir.base (TUninit (local_shape ck p'.Ir.base))
        else env
      in
      (env, t)

(** Write [t] to [place]. Strong update for bare owned locals; weak
    update (a subtyping obligation against the declared pointee/field
    type) through references and fields. *)
let write_place ck (env : env) span (p : Ir.place) (t : rty) : env =
  let p = resolve_place ck env span p in
  if p.Ir.projs = [] then set_local env p.Ir.base t
  else begin
    (* weak update: find the target's declared type *)
    let t0 = get_local ck env span p.Ir.base in
    let rec go env (cur : rty) (projs : Ir.proj list) : unit =
      match (projs, cur) with
      | [], _ ->
          let tag =
            new_tag ck span
              (Format.asprintf "value of type %s does not satisfy the type %s required through this reference"
                 (to_string t) (to_string cur))
          in
          add_clauses ck (Sub.sub ck.genv.Genv.senv (cx_of env) ~tag t cur)
      | Ir.PDeref :: rest, TRef (k, t') ->
          if k = Shr then cerr span "cannot write through a shared reference";
          if rest = [] then begin
            let tag =
              new_tag ck span
                (Format.asprintf
                   "value of type %s does not satisfy the mutable reference's type %s"
                   (to_string t) (to_string t'))
            in
            add_clauses ck (Sub.sub ck.genv.Genv.senv (cx_of env) ~tag t t')
          end
          else
            let env, t'' = bind_rty ck env t' in
            go env t'' rest
      | Ir.PDeref :: _, other ->
          cerr span "cannot write through %s" (to_string other)
      | Ir.PField f :: rest, TBase (BStruct s, Ix ts) -> (
          match Hashtbl.find_opt ck.genv.Genv.senv s with
          | None -> cerr span "unknown struct %s" s
          | Some si -> (
              match List.assoc_opt f si.si_fields with
              | None -> cerr span "struct %s has no field %s" s f
              | Some fty ->
                  let m = List.map2 (fun (x, _) t -> (x, t)) si.si_params ts in
                  let fty = subst_rty m fty in
                  if rest = [] then begin
                    let tag =
                      new_tag ck span
                        (Format.asprintf
                           "value of type %s does not satisfy field type %s"
                           (to_string t) (to_string fty))
                    in
                    add_clauses ck
                      (Sub.sub ck.genv.Genv.senv (cx_of env) ~tag t fty)
                  end
                  else
                    let env, fty = bind_rty ck env fty in
                    go env fty rest))
      | Ir.PField f :: _, other ->
          cerr span "cannot access field %s of %s" f (to_string other)
    in
    go env t0 p.Ir.projs;
    env
  end

(* ------------------------------------------------------------------ *)
(* Rvalues                                                             *)
(* ------------------------------------------------------------------ *)

let ix1 span t =
  match t with
  | TBase (b, Ix [ ix ]) -> (b, ix)
  | _ -> cerr span "expected a singly-indexed value, got %s" (to_string t)

let refkind_of_mut = function Ast.Imm -> Shr | Ast.Mut -> Mut

let check_rvalue ck (env : env) span (dest : Ir.place) (rv : Ir.rvalue) :
    env * rty =
  ignore dest;
  match rv with
  | Ir.RUse op -> read_operand ck env span op
  | Ir.RRef (m, p) ->
      let p = resolve_place ck env span p in
      (env, TPtr (refkind_of_mut m, p))
  | Ir.RUn (uop, op) -> (
      let env, t = read_operand ck env span op in
      match (uop, t) with
      | Ast.Not, TBase (BBool, Ix [ r ]) ->
          (env, TBase (BBool, Ix [ Term.mk_not r ]))
      | Ast.NegOp, TBase (BInt k, Ix [ r ]) ->
          (env, TBase (BInt k, Ix [ Term.neg r ]))
      | Ast.NegOp, TBase (BFloat, _) -> (env, TBase (BFloat, Ix []))
      | _ -> cerr span "invalid operand for unary operator")
  | Ir.RBin (bop, o1, o2) -> (
      let env, t1 = read_operand ck env span o1 in
      let env, t2 = read_operand ck env span o2 in
      match (t1, t2) with
      | TBase (BFloat, _), TBase (BFloat, _) -> (
          match bop with
          | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Rem ->
              (env, TBase (BFloat, Ix []))
          | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.EqOp | Ast.NeOp ->
              (* float comparisons are unrefined booleans *)
              (env, TBase (BBool, Ex ([ (fresh_name "b", Sort.Bool) ], [])))
          | _ -> cerr span "invalid float operation")
      | TBase (BInt k, Ix [ r1 ]), TBase (BInt _, Ix [ r2 ]) -> (
          (* Lint side condition: does the current context bound the
             result within the i32 machine range? Recorded for
             post-solve evaluation, never added to the verification
             clauses. Only i32: the wider kinds' bounds exceed OCaml's
             native int. *)
          let overflow_candidate res =
            match ck.lint with
            | Some la when k = Ast.I32 ->
                let head =
                  Horn.Conc
                    (Term.mk_and
                       [
                         Term.le (Term.int (-2147483648)) res;
                         Term.le res (Term.int 2147483647);
                       ])
                in
                let msg =
                  Format.asprintf
                    "i32 arithmetic `%a` is not provably within [-2^31, \
                     2^31): possible overflow"
                    Term.pp res
                in
                la.la_overflow <-
                  (span, msg, Sub.clause (cx_of env) ~tag:0 head)
                  :: la.la_overflow
            | _ -> ()
          in
          match bop with
          | Ast.Add ->
              let res = Term.add r1 r2 in
              overflow_candidate res;
              (env, TBase (BInt k, Ix [ res ]))
          | Ast.Sub ->
              (* usize subtraction must not underflow: our model is
                 mathematical integers, so the assumed usize invariant
                 [0 <= v] would be unsound without this obligation
                 (DESIGN.md decision 6; the soundness fuzzer finds the
                 counterexample). *)
              if k = Ast.Usize then begin
                let tag =
                  new_tag ck span
                    (Format.asprintf
                       "usize subtraction %a - %a may underflow" Term.pp r1
                       Term.pp r2)
                in
                add_clauses ck
                  [ Sub.clause (cx_of env) ~tag (Horn.Conc (Term.le r2 r1)) ]
              end;
              let res = Term.sub r1 r2 in
              overflow_candidate res;
              (env, TBase (BInt k, Ix [ res ]))
          | Ast.Mul ->
              let res = Term.mul r1 r2 in
              overflow_candidate res;
              (env, TBase (BInt k, Ix [ res ]))
          | Ast.Div -> (env, TBase (BInt k, Ix [ Term.div r1 r2 ]))
          | Ast.Rem -> (env, TBase (BInt k, Ix [ Term.md r1 r2 ]))
          | Ast.Lt -> (env, TBase (BBool, Ix [ Term.lt r1 r2 ]))
          | Ast.Le -> (env, TBase (BBool, Ix [ Term.le r1 r2 ]))
          | Ast.Gt -> (env, TBase (BBool, Ix [ Term.gt r1 r2 ]))
          | Ast.Ge -> (env, TBase (BBool, Ix [ Term.ge r1 r2 ]))
          | Ast.EqOp -> (env, TBase (BBool, Ix [ Term.eq r1 r2 ]))
          | Ast.NeOp -> (env, TBase (BBool, Ix [ Term.ne r1 r2 ]))
          | _ -> cerr span "invalid integer operation")
      | TBase (BBool, Ix [ r1 ]), TBase (BBool, Ix [ r2 ]) -> (
          match bop with
          | Ast.EqOp -> (env, TBase (BBool, Ix [ Term.eq r1 r2 ]))
          | Ast.NeOp -> (env, TBase (BBool, Ix [ Term.ne r1 r2 ]))
          | Ast.AndOp -> (env, TBase (BBool, Ix [ Term.mk_and [ r1; r2 ] ]))
          | Ast.OrOp -> (env, TBase (BBool, Ix [ Term.mk_or [ r1; r2 ] ]))
          | _ -> cerr span "invalid boolean operation")
      | _ ->
          cerr span "invalid operands %s and %s for %s" (to_string t1)
            (to_string t2) (Ast.binop_str bop))
  | Ir.RAggregate (sname, fields) -> (
      let si =
        match Hashtbl.find_opt ck.genv.Genv.senv sname with
        | Some si -> si
        | None -> cerr span "unknown struct %s" sname
      in
      (* Determine the struct's indices: if the destination is the
         return place and the signature declares an indexed return of
         this struct, check against it (bidirectional flow, cf.
         RMat::new in fig. 4); otherwise infer indices by first-order
         matching of the field specs against the actual field types. *)
      let expected =
        if dest.Ir.base = 0 && dest.Ir.projs = [] then
          match ck.fsig.Specconv.fsg_ret with
          | TBase (BStruct s', Ix ts) when String.equal s' sname -> Some ts
          | _ -> None
        else None
      in
      let env, actuals =
        List.fold_left
          (fun (env, acc) (fname, op) ->
            let env, t = read_operand ck env span op in
            (env, (fname, t) :: acc))
          (env, []) fields
      in
      let actuals = List.rev actuals in
      let ts =
        match expected with
        | Some ts -> ts
        | None ->
            (* match field specs against actuals to solve the params *)
            let theta : (string, Term.t) Hashtbl.t = Hashtbl.create 4 in
            let rec mtch (spec : rty) (actual : rty) =
              match (spec, actual) with
              | TBase (bs, Ix ss), TBase (ba, Ix aa)
                when List.length ss = List.length aa ->
                  List.iter2
                    (fun s a ->
                      match s with
                      | Term.Var (x, _)
                        when List.mem_assoc x si.si_params
                             && not (Hashtbl.mem theta x) ->
                          Hashtbl.replace theta x a
                      | _ -> ())
                    ss aa;
                  (match (bs, ba) with
                  | BVec es, BVec ea -> mtch es ea
                  | _ -> ())
              | TRef (_, s), TRef (_, a) -> mtch s a
              | _ -> ()
            in
            List.iter
              (fun (fname, spec) ->
                match List.assoc_opt fname actuals with
                | Some actual -> mtch spec actual
                | None -> ())
              si.si_fields;
            List.map
              (fun (x, _) ->
                match Hashtbl.find_opt theta x with
                | Some t -> t
                | None ->
                    cerr span
                      "cannot infer index %s of struct %s from the field \
                       types; construct it in return position of a function \
                       with a signature"
                      x sname)
              si.si_params
      in
      let m = List.map2 (fun (x, _) t -> (x, t)) si.si_params ts in
      (* the declared struct invariant must hold at construction *)
      (match si.si_invariant with
      | Some inv ->
          let inv' = Term.subst m inv in
          let tag =
            new_tag ck span
              (Format.asprintf
                 "cannot prove the invariant %a of struct %s at construction"
                 Term.pp inv' sname)
          in
          add_clauses ck [ Sub.clause (cx_of env) ~tag (Horn.Conc inv') ]
      | None -> ());
      List.iter
        (fun (fname, spec) ->
          match List.assoc_opt fname actuals with
          | None -> cerr span "missing field %s" fname
          | Some actual ->
              let tag =
                new_tag ck span
                  (Format.asprintf "field %s: %s is not a subtype of %s" fname
                     (to_string actual)
                     (to_string (subst_rty m spec)))
              in
              add_clauses ck
                (Sub.sub ck.genv.Genv.senv (cx_of env) ~tag actual
                   (subst_rty m spec)))
        si.si_fields;
      (env, TBase (BStruct sname, Ix ts)))

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)
(* ------------------------------------------------------------------ *)

(** Read the vector behind a receiver pointer operand. Returns the
    resolved place (or [None] when the receiver sits behind an opaque
    reference, in which case strong updates are illegal), the extended
    env, the element type and the length term. *)
let read_vec_receiver ck (env : env) span (op : Ir.operand) :
    env * Ir.place option * rty * Term.t =
  let recv_place =
    match op with
    | Ir.Move p | Ir.Copy p -> p
    | Ir.Const _ -> cerr span "invalid receiver"
  in
  match IMap.find_opt recv_place.Ir.base env.locals with
  | Some (TPtr (_, target)) -> (
      let target = resolve_place ck env span target in
      (* consume the receiver temp *)
      let env =
        set_local env recv_place.Ir.base
          (TUninit (local_shape ck recv_place.Ir.base))
      in
      let strong =
        target.Ir.projs = []
        &&
        match IMap.find_opt target.Ir.base env.locals with
        | Some (TBase _) -> true
        | _ -> false
      in
      let env, t = read_place ck env span target in
      match t with
      | TBase (BVec elem, Ix [ len ]) ->
          (env, (if strong then Some target else None), elem, len)
      | _ -> cerr span "receiver is not a vector: %s" (to_string t))
  | Some t -> cerr span "expected a borrowed receiver, got %s" (to_string t)
  | None -> cerr span "receiver has no type"

(** Fresh element template for polymorphic instantiation (§4.3). If the
    candidate types already coincide syntactically the template is
    skipped — a cheap but faithful optimization (the fixpoint would
    solve it to the same thing). *)
let instantiate_elem ck (env : env) (shape : Ast.ty) (cands : rty list) span :
    rty =
  match cands with
  | [ t ] -> t
  | t0 :: rest when List.for_all (fun t -> to_string t = to_string t0) rest ->
      t0
  | _ ->
      (match shape with
      | Ast.TFloat -> TBase (BFloat, Ix [])
      | Ast.TUnit -> TBase (BUnit, Ix [])
      | _ ->
          let tmpl =
            Rty.template ck.genv.Genv.senv ~declare:(declare_kvar ck)
              ~scope:env.binders shape
          in
          List.iter
            (fun cand ->
              let tag =
                new_tag ck span
                  (Format.asprintf
                     "cannot reconcile element type %s with the instantiated \
                      template"
                     (to_string cand))
              in
              add_clauses ck (Sub.sub ck.genv.Genv.senv (cx_of env) ~tag cand tmpl))
            cands;
          tmpl)

let check_bounds ck (env : env) span ~(what : string) (idx : Term.t)
    (len : Term.t) =
  let mk msg head =
    let tag = new_tag ck span msg in
    add_clauses ck [ Sub.clause (cx_of env) ~tag (Horn.Conc head) ]
  in
  mk
    (Format.asprintf "%s: cannot prove index %a < length %a" what Term.pp idx
       Term.pp len)
    (Term.lt idx len);
  mk
    (Format.asprintf "%s: cannot prove index %a >= 0" what Term.pp idx)
    (Term.ge idx (Term.int 0))

(** Built-in refined RVec API (fig. 3 of the paper). *)
let check_vec_call ck (env : env) span (m : string) (args : Ir.operand list)
    (dest : Ir.place) : env =
  let strong_target target =
    match target with
    | Some p -> p
    | None ->
        cerr span
          "method RVec::%s requires a strong (&strg) receiver, but the \
           receiver is behind a mutable reference"
          m
  in
  match (m, args) with
  | "len", [ recv ] ->
      let env, _, _, len = read_vec_receiver ck env span recv in
      write_place ck env span dest (TBase (BInt Ast.Usize, Ix [ len ]))
  | "is_empty", [ recv ] ->
      let env, _, _, len = read_vec_receiver ck env span recv in
      write_place ck env span dest
        (TBase (BBool, Ix [ Term.eq len (Term.int 0) ]))
  | "get", [ recv; idx ] | "get_mut", [ recv; idx ] ->
      let env, _, elem, len = read_vec_receiver ck env span recv in
      let env, ti = read_operand ck env span idx in
      let _, i = ix1 span ti in
      check_bounds ck env span ~what:("RVec::" ^ m) i len;
      let kind = if m = "get" then Shr else Mut in
      write_place ck env span dest (TRef (kind, elem))
  | "swap", [ recv; i1; i2 ] ->
      let env, _, _, len = read_vec_receiver ck env span recv in
      let env, t1 = read_operand ck env span i1 in
      let env, t2 = read_operand ck env span i2 in
      let _, x1 = ix1 span t1 in
      let _, x2 = ix1 span t2 in
      check_bounds ck env span ~what:"RVec::swap (first index)" x1 len;
      check_bounds ck env span ~what:"RVec::swap (second index)" x2 len;
      write_place ck env span dest (TBase (BUnit, Ix []))
  | "push", [ recv; value ] ->
      let env, target, elem, len = read_vec_receiver ck env span recv in
      let target = strong_target target in
      let env, tv = read_operand ck env span value in
      let eshape =
        match local_shape ck target.Ir.base with
        | Ast.TVec e -> e
        | _ -> to_shape tv
      in
      let elem' = instantiate_elem ck env eshape [ elem; tv ] span in
      let elem' =
        (* a push into an empty vector need not reconcile with the old
           element type *)
        match len with
        | Term.Int 0 -> instantiate_elem ck env eshape [ tv ] span
        | _ -> elem'
      in
      let env =
        set_local env target.Ir.base
          (TBase (BVec elem', Ix [ Term.add len (Term.int 1) ]))
      in
      write_place ck env span dest (TBase (BUnit, Ix []))
  | "pop", [ recv ] ->
      let env, target, elem, len = read_vec_receiver ck env span recv in
      let target = strong_target target in
      let tag =
        new_tag ck span "RVec::pop: cannot prove the vector is non-empty"
      in
      add_clauses ck
        [ Sub.clause (cx_of env) ~tag (Horn.Conc (Term.gt len (Term.int 0))) ];
      let env =
        set_local env target.Ir.base
          (TBase (BVec elem, Ix [ Term.sub len (Term.int 1) ]))
      in
      let env, velem = bind_rty ck env elem in
      write_place ck env span dest velem
  | "clone", [ recv ] ->
      let env, _, elem, len = read_vec_receiver ck env span recv in
      write_place ck env span dest (TBase (BVec elem, Ix [ len ]))
  | _ -> cerr span "unknown RVec method %s (arity %d)" m (List.length args)

(** Syntax-directed instantiation of a user function's refinement
    parameters (§4.1): match signature argument types against actual
    argument types, unpacking top-level existentials behind references
    when needed. *)
let instantiate_params ck (env : env) span (fsig : Specconv.fsig)
    (actuals : rty list) : env * (string * Term.t) list =
  let theta : (string, Term.t) Hashtbl.t = Hashtbl.create 8 in
  let params = fsig.Specconv.fsg_params in
  let env = ref env in
  (* Unpack a top-level existential actual: it denotes a single value,
     so a fresh rigid variable is a sound instantiation witness. *)
  let unpack_actual (b : base) bs ps : rty =
    let fresh_bs, hyp_ps, b', ts = Sub.unpack ck.genv.Genv.senv b bs ps in
    env :=
      {
        !env with
        binders = !env.binders @ fresh_bs;
        hyps = !env.hyps @ hyp_ps;
      };
    TBase (b', Ix ts)
  in
  let rec mtch ~(top : bool) (spec : rty) (actual : rty) =
    match (spec, actual) with
    | TBase (_, Ix _), TBase (ba, Ex (bs, ps)) when top ->
        mtch ~top (spec) (unpack_actual ba bs ps)
    | TBase (bs, Ix ss), TBase (ba, Ix aa) when List.length ss = List.length aa
      ->
        List.iter2
          (fun s a ->
            match s with
            | Term.Var (x, _)
              when List.mem_assoc x params && not (Hashtbl.mem theta x) ->
                Hashtbl.replace theta x a
            | _ -> ())
          ss aa;
        (match (bs, ba) with BVec es, BVec ea -> mtch ~top:false es ea | _ -> ())
    | TRef (_, s), TRef (_, a) -> mtch ~top:true s a
    | TRef (_, s), TPtr (_, place) ->
        let env', a = read_place ck !env span place in
        env := env';
        mtch ~top:true s a
    | _ -> ()
  in
  List.iter2
    (fun s a -> mtch ~top:true s a)
    fsig.Specconv.fsg_args actuals;
  let m =
    List.map
      (fun (x, _) ->
        match Hashtbl.find_opt theta x with
        | Some t -> (x, t)
        | None ->
            cerr span
              "cannot instantiate refinement parameter @%s of %s from the \
               call site (it only occurs in a nested polymorphic position); \
               pass it as an explicit argument"
              x fsig.Specconv.fsg_name)
      params
  in
  (!env, m)

(** Check a call to a user-defined function against its resolved
    signature (rule T-CALL). *)
let check_user_call ck (env : env) span (fsig : Specconv.fsig)
    (args : Ir.operand list) (dest : Ir.place) : env =
  if List.length args <> List.length fsig.Specconv.fsg_args then
    cerr span "%s: expected %d arguments, got %d" fsig.Specconv.fsg_name
      (List.length fsig.Specconv.fsg_args)
      (List.length args);
  (* read all actuals (moves consume) *)
  let env, actuals =
    List.fold_left
      (fun (env, acc) op ->
        match op with
        | Ir.Move p | Ir.Copy p -> (
            (* keep pointers unresolved: we need them for strong refs *)
            match IMap.find_opt (resolve_place ck env span p).Ir.base env.locals
            with
            | Some (TPtr _ as t) when p.Ir.projs = [] ->
                let env =
                  match op with
                  | Ir.Move _ ->
                      set_local env p.Ir.base (TUninit (local_shape ck p.Ir.base))
                  | _ -> env
                in
                (env, t :: acc)
            | _ ->
                let env, t = read_operand ck env span op in
                (env, t :: acc))
        | Ir.Const _ ->
            let env, t = read_operand ck env span op in
            (env, t :: acc))
      (env, []) args
  in
  let actuals = List.rev actuals in
  (* Normalize top-level existential actuals ONCE, so that parameter
     instantiation and the subtyping checks below see the same rigid
     witness (a value has one index; two independent unpackings would
     be unrelated). *)
  let env = ref env in
  let normalize_actual (t : rty) : rty =
    match t with
    | TBase (_, Ex _) ->
        let env', t' = bind_rty ck !env t in
        env := env';
        t'
    | TRef (k, (TBase (_, Ex _) as inner)) ->
        let env', inner' = bind_rty ck !env inner in
        env := env';
        TRef (k, inner')
    | t -> t
  in
  let actuals = List.map normalize_actual actuals in
  let env = !env in
  (* instantiate refinement parameters *)
  let env, theta = instantiate_params ck env span fsig actuals in
  (* preconditions *)
  List.iter
    (fun r ->
      let r' = Term.subst theta r in
      let tag =
        new_tag ck span
          (Format.asprintf "%s: cannot prove precondition %a"
             fsig.Specconv.fsg_name Term.pp r')
      in
      add_clauses ck [ Sub.clause (cx_of env) ~tag (Horn.Conc r') ])
    fsig.Specconv.fsg_requires;
  (* argument subtyping; strong references are handled via their target *)
  let env = ref env in
  List.iteri
    (fun i (spec, actual) ->
      let spec = subst_rty theta spec in
      match (spec, actual) with
      | TRef (Strg, t_in), TPtr (_, place) ->
          let place = resolve_place ck !env span place in
          if place.Ir.projs <> [] then
            cerr span
              "%s: strong reference argument must point to an exclusively \
               owned location"
              fsig.Specconv.fsg_name;
          let env', t_a = read_place ck !env span place in
          env := env';
          let tag =
            new_tag ck span
              (Format.asprintf "%s: argument %d: %s is not a subtype of %s"
                 fsig.Specconv.fsg_name (i + 1) (to_string t_a) (to_string t_in))
          in
          add_clauses ck (Sub.sub ck.genv.Genv.senv (cx_of !env) ~tag t_a t_in);
          (* apply the ensures clause as a strong update *)
          let t_out =
            match List.assoc_opt i fsig.Specconv.fsg_ensures with
            | Some t -> subst_rty theta t
            | None -> t_in
          in
          let env', t_out = bind_rty ck !env t_out in
          env := set_local env' place.Ir.base t_out
      | TRef (Strg, _), other ->
          cerr span "%s: argument %d must be a strong reference, got %s"
            fsig.Specconv.fsg_name (i + 1) (to_string other)
      | TRef (k, t_spec), TPtr (_, place) ->
          let env', t_a = read_place ck !env span place in
          env := env';
          let tag =
            new_tag ck span
              (Format.asprintf "%s: argument %d: %s is not a subtype of %s"
                 fsig.Specconv.fsg_name (i + 1) (to_string t_a)
                 (to_string t_spec))
          in
          let cls = Sub.sub ck.genv.Genv.senv (cx_of !env) ~tag t_a t_spec in
          let cls =
            if k = Shr then cls
            else
              cls @ Sub.sub ck.genv.Genv.senv (cx_of !env) ~tag t_spec t_a
          in
          add_clauses ck cls
      | spec, actual ->
          let tag =
            new_tag ck span
              (Format.asprintf "%s: argument %d: %s is not a subtype of %s"
                 fsig.Specconv.fsg_name (i + 1) (to_string actual)
                 (to_string spec))
          in
          add_clauses ck (Sub.sub ck.genv.Genv.senv (cx_of !env) ~tag actual spec))
    (List.combine fsig.Specconv.fsg_args actuals);
  (* return value *)
  let ret = subst_rty theta fsig.Specconv.fsg_ret in
  let env', ret = bind_rty ck !env ret in
  write_place ck env' span dest ret

let check_call ck (env : env) span (func : string) (args : Ir.operand list)
    (dest : Ir.place) : env =
  if String.equal func "RVec::new" then begin
    let eshape =
      match Ir.place_ty_from ck.genv.Genv.prog (local_shape ck dest.Ir.base)
              dest.Ir.projs
      with
      | Ast.TVec e -> e
      | t -> cerr span "RVec::new at non-vector type %s" (Format.asprintf "%a" Ast.pp_ty t)
    in
    let elem =
      match eshape with
      | Ast.TFloat -> TBase (BFloat, Ix [])
      | Ast.TUnit -> TBase (BUnit, Ix [])
      | _ ->
          Rty.template ck.genv.Genv.senv ~declare:(declare_kvar ck)
            ~scope:env.binders eshape
    in
    write_place ck env span dest (TBase (BVec elem, Ix [ Term.int 0 ]))
  end
  else
    match String.index_opt func ':' with
    | Some _ when String.length func > 6 && String.sub func 0 6 = "RVec::" ->
        let m = String.sub func 6 (String.length func - 6) in
        check_vec_call ck env span m args dest
    | _ -> (
        match Genv.find_sig ck.genv func with
        | Some fsig -> check_user_call ck env span fsig args dest
        | None -> cerr span "unknown function %s" func)

(* ------------------------------------------------------------------ *)
(* Join templates                                                      *)
(* ------------------------------------------------------------------ *)

(** Index terms exported by a local's normalized type (used to build the
    per-predecessor substitution at a join). *)
let exported_indices (t : rty) : Term.t list option =
  match t with TBase (_, Ix ts) -> Some ts | _ -> None

(** Build the template environment for a join block: live locals keep
    their shape, every index becomes an existential bound by a fresh κ
    over (value, earlier join binders, signature parameters). *)
let build_template ck (bb : int) : (string * Sort.t) list * rty IMap.t =
  match Hashtbl.find_opt ck.templates bb with
  | Some t -> t
  | None ->
      let live = Liveness.live_at ck.live ~block:bb in
      let live_locals = ref [] in
      Array.iteri (fun l b -> if b then live_locals := l :: !live_locals) live;
      (* shadow locals of &strg parameters are always live *)
      Hashtbl.iter (fun l _ -> live_locals := l :: !live_locals) ck.shadow_tys;
      let live_locals = List.sort compare !live_locals in
      (* pass 1: every local's top-level binders become the join's
         ghost variables, visible to every κ (the paper's κ(b, c)) *)
      let tops =
        List.map
          (fun l ->
            if Hashtbl.mem ck.strg_args l then (l, [])
            else (l, Rty.top_binders ck.genv.Genv.senv (local_shape ck l)))
          live_locals
      in
      let binders = List.concat_map snd tops in
      (* pass 2: build each template with the full ghost scope minus the
         local's own binders (they are the κ's value slots) *)
      let locals =
        List.fold_left
          (fun acc (l, own) ->
            let others =
              List.filter (fun b -> not (List.memq b own)) binders
            in
            let scope = ck.fsig.Specconv.fsg_params @ others in
            let t =
              match Hashtbl.find_opt ck.strg_args l with
              | Some shadow ->
                  (* &strg parameters keep pointing at their shadow *)
                  TPtr (Mut, Ir.local_place shadow)
              | None ->
                  (* record which κs belong to this join's template so
                     the trivial-refinement lint can ask whether they
                     all collapsed to [true] *)
                  let declare kv =
                    (match ck.lint with
                    | Some la ->
                        let prev =
                          Option.value ~default:[]
                            (Hashtbl.find_opt la.la_join_kvars bb)
                        in
                        Hashtbl.replace la.la_join_kvars bb
                          (kv.Horn.kname :: prev)
                    | None -> ());
                    declare_kvar ck kv
                  in
                  Rty.template ck.genv.Genv.senv ~declare ~scope ~top:own
                    (local_shape ck l)
            in
            IMap.add l t acc)
          IMap.empty tops
      in
      let result = (binders, locals) in
      Hashtbl.replace ck.templates bb result;
      result

(** Emit the context-inclusion constraints Γ ⊢ T_bb for a jump from an
    environment into a join block (rule T-JUMP / phase 2 of §4.2). *)
let flow_into_join ck (env : env) span (bb : int) : unit =
  let tmpl_binders, tmpl_locals = build_template ck bb in
  (* per-predecessor substitution: template binders := actual indices *)
  let subst =
    IMap.fold
      (fun l t acc ->
        match t with
        | TBase (_, Ex (bs, _)) -> (
            match IMap.find_opt l env.locals with
            | Some actual -> (
                match exported_indices actual with
                | Some ts when List.length ts = List.length bs ->
                    List.map2 (fun (x, _) t -> (x, t)) bs ts @ acc
                | _ -> acc)
            | None -> acc)
        | _ -> acc)
      tmpl_locals []
  in
  ignore tmpl_binders;
  IMap.iter
    (fun l tmpl ->
      match IMap.find_opt l env.locals with
      | None ->
          cerr span "internal: live local %s has no type at a join"
            (local_name ck l)
      | Some actual -> (
          match (actual, tmpl) with
          | TPtr (_, p1), TPtr (_, p2) when p1 = p2 -> ()
          | TPtr _, _ ->
              cerr span
                "a borrow with a statically-known target is live at a join \
                 point; this is not supported"
          | TUninit _, _ ->
              cerr span "a possibly-uninitialized local is live at a join"
          | _ ->
              let tmpl = subst_rty subst tmpl in
              let tag =
                new_tag ck span
                  (Format.asprintf
                     "at join bb%d, local %s: %s does not flow into the \
                      inferred invariant"
                     bb (local_name ck l) (to_string actual))
              in
              add_clauses ck
                (Sub.sub ck.genv.Genv.senv (cx_of env) ~tag actual tmpl)))
    tmpl_locals

(** Entry environment of a join block: bind the template, keeping
    binder names (they are globally fresh, and later locals' κ
    applications refer to earlier locals' binders). *)
let join_entry_env ck (bb : int) : env =
  let _, tmpl_locals = build_template ck bb in
  let env =
    ref
      {
        binders = ck.fsig.Specconv.fsg_params;
        hyps = [];
        locals = IMap.empty;
      }
  in
  (* signature preconditions still hold for the parameters in scope *)
  env :=
    { !env with
      hyps = List.map (fun r -> Horn.Conc r) ck.fsig.Specconv.fsg_requires };
  IMap.iter
    (fun l t ->
      match t with
      | TBase (b, Ex (bs, ps)) ->
          let ts = List.map (fun (x, s) -> Term.Var (x, s)) bs in
          let invs =
            List.map
              (fun p -> Horn.Conc p)
              (index_invariants ck.genv.Genv.senv b ts)
          in
          env :=
            {
              binders = !env.binders @ bs;
              hyps = !env.hyps @ ps @ invs;
              locals = IMap.add l (TBase (b, Ix ts)) !env.locals;
            }
      | t -> env := { !env with locals = IMap.add l t !env.locals })
    tmpl_locals;
  !env

(* ------------------------------------------------------------------ *)
(* Statements and terminators                                          *)
(* ------------------------------------------------------------------ *)

let check_stmt ck (env : env) (s : Ir.stmt) : env =
  match s with
  | Ir.SNop | Ir.SInvariant _ -> env (* Prusti annotations are inert here *)
  | Ir.SAssign (dest, rv, span) ->
      let env, t = check_rvalue ck env span dest rv in
      write_place ck env span dest t

(** Path condition of a switch operand. *)
let switch_cond ck (env : env) span (op : Ir.operand) : env * Term.t =
  let env, t = read_operand ck env span op in
  match t with
  | TBase (BBool, Ix [ r ]) -> (env, r)
  | TBase (BBool, Ex _) ->
      let env, t' = bind_rty ck env t in
      (match t' with
      | TBase (BBool, Ix [ r ]) -> (env, r)
      | _ -> cerr span "switch on non-boolean")
  | _ -> cerr span "switch on non-boolean %s" (to_string t)

(* ------------------------------------------------------------------ *)
(* Per-function driver                                                 *)
(* ------------------------------------------------------------------ *)

let is_join ck preds bb =
  List.length preds.(bb) > 1 || ck.body.Ir.mb_loop_heads.(bb)

let flow ck preds (env : env) span (succ : int) : unit =
  if is_join ck preds succ then flow_into_join ck env span succ
  else Hashtbl.replace ck.pending succ env

let check_return ck (env : env) span : unit =
  let ret_t = get_local ck env span 0 in
  (match ret_t with
  | TUninit _ -> cerr span "return place is uninitialized at return"
  | _ -> ());
  let tag =
    new_tag ck span
      (Format.asprintf "return value %s does not satisfy the declared return \
                        type %s"
         (to_string ret_t)
         (to_string ck.fsig.Specconv.fsg_ret))
  in
  add_clauses ck
    (Sub.sub ck.genv.Genv.senv (cx_of env) ~tag ret_t ck.fsig.Specconv.fsg_ret);
  (* strong-reference parameters must satisfy their ensured types *)
  List.iteri
    (fun i spec_arg ->
      match spec_arg with
      | TRef (Strg, t_in) ->
          let t_out =
            match List.assoc_opt i ck.fsig.Specconv.fsg_ensures with
            | Some t -> t
            | None -> t_in
          in
          let arg_local = i + 1 in
          (match IMap.find_opt arg_local env.locals with
          | Some (TPtr (_, place)) ->
              let env', t_cur = read_place ck env span place in
              let tag =
                new_tag ck span
                  (Format.asprintf
                     "at return, strong reference %s has type %s, which does \
                      not satisfy the ensured type %s"
                     ck.body.Ir.mb_locals.(arg_local).Ir.ld_name
                     (to_string t_cur) (to_string t_out))
              in
              add_clauses ck
                (Sub.sub ck.genv.Genv.senv (cx_of env') ~tag t_cur t_out)
          | _ ->
              cerr span "strong reference parameter was moved or overwritten")
      | _ -> ())
    ck.fsig.Specconv.fsg_args

let check_terminator ck preds (env : env) (t : Ir.terminator) : unit =
  let span = ck.body.Ir.mb_span in
  match t with
  | Ir.TGoto s -> flow ck preds env span s
  | Ir.TSwitch (op, s_then, s_else) ->
      let env, r = switch_cond ck env span op in
      flow ck preds { env with hyps = env.hyps @ [ Horn.Conc r ] } span s_then;
      flow ck preds
        { env with hyps = env.hyps @ [ Horn.Conc (Term.mk_not r) ] }
        span s_else
  | Ir.TCall { tc_func; tc_args; tc_dest; tc_target; tc_span } ->
      let env' = check_call ck env tc_span tc_func tc_args tc_dest in
      flow ck preds env' tc_span tc_target
  | Ir.TReturn -> check_return ck env span
  | Ir.TUnreachable ->
      (* reachable `unreachable` (e.g. a failed assert!): prove the path
         infeasible *)
      let tag = new_tag ck span "cannot prove this assertion/unreachable code" in
      add_clauses ck [ Sub.clause (cx_of env) ~tag (Horn.Conc Term.ff) ]

(** Initial environment from the function's signature (rule T-DEF). *)
let initial_env ck : env =
  let env =
    ref
      {
        binders = ck.fsig.Specconv.fsg_params;
        hyps = List.map (fun r -> Horn.Conc r) ck.fsig.Specconv.fsg_requires;
        locals = IMap.empty;
      }
  in
  (* return place *)
  env := set_local !env 0 (TUninit (Ir.local_ty ck.body 0));
  (* arguments *)
  List.iteri
    (fun i spec_arg ->
      let l = i + 1 in
      match spec_arg with
      | TRef (Strg, t_in) ->
          let pointee_shape =
            match Ir.local_ty ck.body l with
            | Ast.TRef (_, inner) -> inner
            | t -> t
          in
          let shadow = new_shadow ck pointee_shape in
          Hashtbl.replace ck.strg_args l shadow;
          let env', t_in = bind_rty ck !env t_in in
          env := set_local env' shadow t_in;
          env := set_local !env l (TPtr (Mut, Ir.local_place shadow))
      | t ->
          let env', t' = bind_rty ck !env t in
          env := set_local env' l t')
    ck.fsig.Specconv.fsg_args;
  (* all other locals start uninitialized *)
  Array.iteri
    (fun l _ ->
      if not (IMap.mem l !env.locals) then
        env := set_local !env l (TUninit (Ir.local_ty ck.body l)))
    ck.body.Ir.mb_locals;
  !env

(** A function's checked-but-unsolved state: the constraint system the
    walk produced (or the errors that aborted it), plus everything
    needed to map solver failures back to source spans. Splitting the
    check here lets the engine pool constraint generation and fixpoint
    solving separately — in particular, to schedule the solve's SCC
    slices across functions. *)
type prepared = {
  pr_name : string;
  pr_kvars : Horn.kvar list;
  pr_clauses : Horn.clause list;
  pr_tags : (int, Ast.span * string) Hashtbl.t;
  pr_span : Ast.span;  (** body span, the fallback for unknown tags *)
  pr_lint : lint_info option;
  pr_early : error list option;
      (** [Some errors] when generation itself failed (parse-level
          check errors, spec errors): there is nothing to solve *)
  pr_gen_s : float;
}

let prepared_name pr = pr.pr_name
let prepared_early pr = pr.pr_early <> None
let prepared_kvars pr = pr.pr_kvars
let prepared_clauses pr = pr.pr_clauses
let prepared_lint pr = pr.pr_lint

let prepare_core ~(lint : bool) (genv : Genv.t) (fd : Ast.fn_def)
    (body : Ir.body) : prepared =
  let t0 = Unix.gettimeofday () in
  (* Per-function determinism: every check draws fresh names (and κ
     names) from zero, so the constraints — and the report — are a
     pure function of (genv, fd, body), independent of check order or
     of which domain runs the check. Signature-era binders cannot be
     captured: [Sub.unpack] renames them and [Sub.sub] substitutes
     them away before they reach any context. *)
  Rty.reset_fresh ();
  let fsig =
    match Genv.find_sig genv fd.Ast.fn_name with
    | Some s -> s
    | None -> Specconv.default_sig fd
  in
  let ck =
    {
      genv;
      body;
      live = Liveness.compute body;
      fsig;
      clauses = [];
      kvars = [];
      tags = Hashtbl.create 64;
      next_tag = 0;
      errors = [];
      shadow_tys = Hashtbl.create 4;
      next_shadow = Array.length body.Ir.mb_blocks + Array.length body.Ir.mb_locals + 1000;
      strg_args = Hashtbl.create 4;
      templates = Hashtbl.create 8;
      pending = Hashtbl.create 16;
      lint =
        (if lint then
           Some
             {
               la_precond = [];
               la_blocks = [];
               la_dead = [];
               la_join_kvars = Hashtbl.create 8;
               la_overflow = [];
             }
         else None);
    }
  in
  let lint_result () =
    Option.map
      (fun la ->
        {
          li_precond = la.la_precond;
          li_blocks = List.rev la.la_blocks;
          li_dead_blocks = List.rev la.la_dead;
          li_join_kvars =
            Hashtbl.fold
              (fun bb ks acc -> (bb, List.rev ks) :: acc)
              la.la_join_kvars []
            |> List.sort compare;
          li_overflow = List.rev la.la_overflow;
          li_kvars = ck.kvars;
        })
      ck.lint
  in
  let prepared early =
    Profile.add "check.clauses" (List.length ck.clauses);
    Profile.add "check.kvars" (List.length ck.kvars);
    {
      pr_name = fd.Ast.fn_name;
      pr_kvars = ck.kvars;
      pr_clauses = List.rev ck.clauses;
      pr_tags = ck.tags;
      pr_span = body.Ir.mb_span;
      pr_lint = lint_result ();
      pr_early = early;
      pr_gen_s = Unix.gettimeofday () -. t0;
    }
  in
  try
    let preds = Ir.predecessors body in
    let entry_env = initial_env ck in
    Option.iter
      (fun la -> la.la_precond <- conc_hyps entry_env)
      ck.lint;
    let rpo = Ir.reverse_postorder body in
    List.iter
      (fun bb ->
        let env_opt =
          if bb = 0 && not (is_join ck preds 0) then Some entry_env
          else if is_join ck preds bb then begin
            if bb = 0 then flow_into_join ck entry_env body.Ir.mb_span 0;
            Some (join_entry_env ck bb)
          end
          else Hashtbl.find_opt ck.pending bb
        in
        match env_opt with
        | None ->
            (* unreachable block *)
            Option.iter (fun la -> la.la_dead <- bb :: la.la_dead) ck.lint
        | Some env ->
            Option.iter
              (fun la -> la.la_blocks <- (bb, conc_hyps env) :: la.la_blocks)
              ck.lint;
            let blk = body.Ir.mb_blocks.(bb) in
            let env = List.fold_left (check_stmt ck) env blk.Ir.stmts in
            check_terminator ck preds env blk.Ir.term)
      rpo;
    prepared None
  with
  | Check_error (msg, span) ->
      prepared
        (Some
           [
             {
               err_fn = fd.Ast.fn_name;
               err_span = span;
               err_msg = msg;
               err_witness = None;
             };
           ])
  | Rty.Type_error msg | Specconv.Spec_error msg ->
      prepared
        (Some
           [
             {
               err_fn = fd.Ast.fn_name;
               err_span = fd.Ast.fn_span;
               err_msg = msg;
               err_witness = None;
             };
           ])

let prepare ?(lint = false) (genv : Genv.t) (fd : Ast.fn_def) (body : Ir.body)
    : prepared =
  Profile.with_fn fd.Ast.fn_name @@ fun () ->
  Profile.time "check.fn_s" @@ fun () -> prepare_core ~lint genv fd body

(** Turn a prepared function plus its solver verdict into a report:
    map failing tags back to source spans. [solve_s] is the wall-clock
    the solve took (added to the generation time for [fr_time]). *)
let finish ?(solve_s = 0.) ?(certify = false) (pr : prepared)
    (result : Solve.result option) : fn_report =
  let mk errors solution =
    {
      fr_name = pr.pr_name;
      fr_errors = errors;
      fr_solution = solution;
      fr_kvars = List.length pr.pr_kvars;
      fr_clauses = List.length pr.pr_clauses;
      fr_time = pr.pr_gen_s +. solve_s;
    }
  in
  match pr.pr_early with
  | Some errors -> mk errors None
  | None -> (
      match result with
      | None -> mk [] None
      | Some (Solve.Sat sol) -> mk [] (Some sol)
      | Some (Solve.Unsat (fails, sol)) ->
          let errors =
            List.map
              (fun (f : Solve.failure) ->
                let span, msg =
                  match Hashtbl.find_opt pr.pr_tags f.Solve.f_tag with
                  | Some x -> x
                  | None -> (pr.pr_span, "unknown obligation")
                in
                let witness =
                  if certify then begin
                    let w =
                      Solver.counterexample
                        (Term.mk_imp f.Solve.f_lhs f.Solve.f_rhs)
                    in
                    if w <> None then Profile.incr "cert.cex";
                    w
                  end
                  else None
                in
                {
                  err_fn = pr.pr_name;
                  err_span = span;
                  err_msg = msg;
                  err_witness = witness;
                })
              fails
          in
          mk errors (Some sol))

let check_body_gen ?config ~(lint : bool) (genv : Genv.t) (fd : Ast.fn_def)
    (body : Ir.body) : fn_report * lint_info option =
  let pr = prepare ~lint genv fd body in
  if pr.pr_early <> None then (finish pr None, pr.pr_lint)
  else
    let t0 = Unix.gettimeofday () in
    let result =
      Profile.with_fn fd.Ast.fn_name @@ fun () ->
      Solve.solve_clauses_incremental ?config ~kvars:pr.pr_kvars pr.pr_clauses
    in
    let solve_s = Unix.gettimeofday () -. t0 in
    (finish ~solve_s pr (Some result), pr.pr_lint)

let check_body ?config (genv : Genv.t) (fd : Ast.fn_def) (body : Ir.body) :
    fn_report =
  fst (check_body_gen ?config ~lint:false genv fd body)

let check_body_lint ?config (genv : Genv.t) (fd : Ast.fn_def)
    (body : Ir.body) : fn_report * lint_info =
  match check_body_gen ?config ~lint:true genv fd body with
  | fr, Some li -> (fr, li)
  | _, None -> assert false

(* ------------------------------------------------------------------ *)
(* Whole programs                                                      *)
(* ------------------------------------------------------------------ *)

type report = {
  rp_fns : fn_report list;
  rp_time : float;
}

let report_ok (r : report) = List.for_all fn_ok r.rp_fns

let report_errors (r : report) =
  List.concat_map (fun fr -> fr.fr_errors) r.rp_fns

let check_program_ast ?config (prog : Ast.program) : report =
  let t0 = Unix.gettimeofday () in
  let genv = Genv.build prog in
  let fns =
    List.filter_map
      (fun (fd : Ast.fn_def) ->
        if fd.Ast.fn_trusted then None
        else
          match Genv.find_body genv fd.Ast.fn_name with
          | Some body -> Some (check_body ?config genv fd body)
          | None -> None)
      (Ast.program_fns prog)
  in
  { rp_fns = fns; rp_time = Unix.gettimeofday () -. t0 }

(** Parse, typecheck, lower and refine-check a source string. *)
let check_source ?config (src : string) : report =
  let prog = Flux_syntax.Parser.parse_program src in
  Flux_syntax.Typeck.check_program prog;
  check_program_ast ?config prog
