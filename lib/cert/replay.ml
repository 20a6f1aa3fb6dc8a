(** Independent replay checker for {!Flux_smt.Proof} certificates.

    Trust story: accepting a certificate must not require trusting the
    solver, so this module shares {e no} code with it. The trusted base
    is
    + {!Flux_smt.Term}'s smart constructors (used to re-derive the
      elaborated skeleton and the allowed definitional facts),
    + the ~40-line association-list linear arithmetic below (used to
      re-add every Farkas combination from scratch — certificates
      store only multipliers, never intermediate rows, so a tampered
      hint cannot be covered up), and
    + {!Flux_smt.Eval}'s ground evaluation (a final spot check that
      enumerates a small box of inputs and rejects if the supposedly
      valid goal evaluates to [false] anywhere).

    The checker validates, in order: the fresh-variable discipline
    (names are new and acyclically defined — which is what makes "every
    model of the negated goal extends to the fresh variables" true),
    that every recorded definitional fact is licensed by a recorded
    fresh fact, that the recorded skeleton is exactly the re-derived
    elaboration of the negated goal, and that the case-split tree
    closes every path — propositionally, or by a theory derivation
    ending in a positive constant row [k ≤ 0].

    Every rejection carries a distinct {!error}; [Ok ()] means the goal
    is valid whenever the trusted base is correct, independently of any
    solver bug. *)

open Flux_smt

type error =
  | Bad_sexp of string  (** unparseable certificate text *)
  | Bad_fresh of string  (** fresh-variable discipline violated *)
  | Bad_def of string  (** a recorded def is not licensed *)
  | Skeleton_mismatch of string  (** re-derived elaboration differs *)
  | Bad_tree of string  (** split/unit structure invalid *)
  | Bad_refutation of string  (** theory-leaf derivation broken *)
  | Goal_falsified of string  (** ground evaluation found a countermodel *)

let error_to_string = function
  | Bad_sexp m -> "malformed certificate: " ^ m
  | Bad_fresh m -> "bad fresh fact: " ^ m
  | Bad_def m -> "unlicensed definition: " ^ m
  | Skeleton_mismatch m -> "skeleton mismatch: " ^ m
  | Bad_tree m -> "bad search tree: " ^ m
  | Bad_refutation m -> "bad theory refutation: " ^ m
  | Goal_falsified m -> "goal falsified by ground evaluation: " ^ m

exception Reject of error

let reject e = raise (Reject e)

module TermTbl = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Stdlib.Hashtbl.hash
end)

(* ------------------------------------------------------------------ *)
(* Linear forms (independent of the solver's)                          *)
(* ------------------------------------------------------------------ *)

module Lin = struct
  type t = { coeffs : (string * int) list; const : int }
  (** sorted by variable name, coefficients nonzero *)

  let const k = { coeffs = []; const = k }
  let var x = { coeffs = [ (x, 1) ]; const = 0 }

  let add a b =
    let rec merge xs ys =
      match (xs, ys) with
      | [], l | l, [] -> l
      | (x, cx) :: xs', (y, cy) :: ys' ->
          if x = y then
            let c = cx + cy in
            if c = 0 then merge xs' ys' else (x, c) :: merge xs' ys'
          else if x < y then (x, cx) :: merge xs' ys
          else (y, cy) :: merge xs ys'
    in
    { coeffs = merge a.coeffs b.coeffs; const = a.const + b.const }

  let scale k a =
    if k = 0 then const 0
    else
      { coeffs = List.map (fun (x, c) -> (x, k * c)) a.coeffs;
        const = k * a.const }

  let sub a b = add a (scale (-1) b)
  let is_const a = a.coeffs = []
  let plus1 a = { a with const = a.const + 1 }

  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

  let fdiv a b =
    let q = a / b and r = a mod b in
    if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

  (** Integer tightening: [Σcᵢxᵢ + k ≤ 0] with [g = gcd cᵢ > 1]
      implies [Σ(cᵢ/g)xᵢ + ⌈k/g⌉ ≤ 0]. Undefined on constant rows. *)
  let tighten a =
    if is_const a then reject (Bad_refutation "tighten on constant row")
    else
      let g = List.fold_left (fun g (_, c) -> gcd c g) 0 a.coeffs in
      if g <= 1 then a
      else
        { coeffs = List.map (fun (x, c) -> (x, c / g)) a.coeffs;
          const = -fdiv (-a.const) g }
end

exception Nonlinear

let rec lin_of_term (t : Term.t) : Lin.t =
  match t with
  | Term.Var (x, _) -> Lin.var x
  | Term.Int n -> Lin.const n
  | Term.Neg a -> Lin.scale (-1) (lin_of_term a)
  | Term.Binop (Term.Add, a, b) -> Lin.add (lin_of_term a) (lin_of_term b)
  | Term.Binop (Term.Sub, a, b) -> Lin.sub (lin_of_term a) (lin_of_term b)
  | Term.Binop (Term.Mul, Term.Int k, a)
  | Term.Binop (Term.Mul, a, Term.Int k) ->
      Lin.scale k (lin_of_term a)
  | _ -> raise Nonlinear

(** The row [≤ 0] asserted by atom [t] assigned [pol] (direction [dir]
    selects a side for equalities). This table {e defines} what an atom
    means arithmetically — e.g. [a < b] iff [a - b + 1 ≤ 0] over the
    integers — and is justified on its own, not by mirroring the
    solver. *)
let row_of_atom (t : Term.t) (pol : bool) (dir : int) : Lin.t =
  match t with
  | Term.Cmp (op, a, b) -> (
      if dir <> 1 then reject (Bad_refutation "directed comparison hypothesis")
      else
        try
          let d = Lin.sub (lin_of_term a) (lin_of_term b) in
          match (op, pol) with
          | Term.Lt, true -> Lin.plus1 d
          | Term.Lt, false -> Lin.scale (-1) d
          | Term.Le, true -> d
          | Term.Le, false -> Lin.plus1 (Lin.scale (-1) d)
          | Term.Gt, true -> Lin.plus1 (Lin.scale (-1) d)
          | Term.Gt, false -> d
          | Term.Ge, true -> Lin.scale (-1) d
          | Term.Ge, false -> Lin.plus1 d
        with Nonlinear -> reject (Bad_refutation "nonlinear hypothesis"))
  | Term.Eq (a, b) -> (
      if not pol then reject (Bad_refutation "disequality used as hypothesis")
      else
        try
          let d = Lin.sub (lin_of_term a) (lin_of_term b) in
          if dir = 1 then d
          else if dir = -1 then Lin.scale (-1) d
          else reject (Bad_refutation "bad direction")
        with Nonlinear -> reject (Bad_refutation "nonlinear hypothesis"))
  | _ -> reject (Bad_refutation "non-arithmetic hypothesis")

(* ------------------------------------------------------------------ *)
(* Mirror elaboration                                                  *)
(* ------------------------------------------------------------------ *)

let rec has_real (t : Term.t) =
  match t with
  | Term.Real _ | Term.Var (_, Sort.Real) -> true
  | Term.Var _ | Term.Int _ | Term.Bool _ -> false
  | Term.Neg a | Term.Not a -> has_real a
  | Term.Binop (_, a, b)
  | Term.Cmp (_, a, b)
  | Term.Eq (a, b)
  | Term.Ne (a, b)
  | Term.Imp (a, b)
  | Term.Iff (a, b) ->
      has_real a || has_real b
  | Term.And ts | Term.Or ts | Term.App (_, ts) -> List.exists has_real ts
  | Term.Ite (a, b, c) -> has_real a || has_real b || has_real c

type mirror = {
  keyed : Term.t TermTbl.t;  (** opaque/quotient key → fresh variable *)
  mutable itevs : (Term.t * Term.t * Term.t * Term.t) list;
      (** pending ite facts, in introduction order *)
}

let lookup m (key : Term.t) : Term.t =
  match TermTbl.find_opt m.keyed key with
  | Some v -> v
  | None ->
      reject
        (Skeleton_mismatch
           ("no fresh fact for " ^ Term.to_string key))

let rec e_int m (t : Term.t) : Term.t =
  match t with
  | Term.Var _ | Term.Int _ -> t
  | Term.Real _ -> lookup m t
  | Term.Neg a -> Term.neg (e_int m a)
  | Term.Binop (Term.Add, a, b) -> Term.add (e_int m a) (e_int m b)
  | Term.Binop (Term.Sub, a, b) -> Term.sub (e_int m a) (e_int m b)
  | Term.Binop (Term.Mul, a, b) -> (
      let a = e_int m a and b = e_int m b in
      match (a, b) with
      | Term.Int _, _ | _, Term.Int _ -> Term.mul a b
      | _ -> lookup m (Term.Binop (Term.Mul, a, b)))
  | Term.Binop (Term.Div, a, Term.Int c) when c > 0 ->
      let a = e_int m a in
      lookup m (Term.Binop (Term.Div, a, Term.int c))
  | Term.Binop (Term.Mod, a, Term.Int c) when c > 0 ->
      let a = e_int m a in
      let q = lookup m (Term.Binop (Term.Div, a, Term.int c)) in
      Term.sub a (Term.mul (Term.int c) q)
  | Term.Binop ((Term.Div | Term.Mod), _, _) -> lookup m t
  | Term.App (f, args) ->
      let args = List.map (e_int m) args in
      lookup m (Term.App (f, args))
  | Term.Ite (c, a, b) -> (
      let c = e_pred m c in
      let a = e_int m a and b = e_int m b in
      match m.itevs with
      | (c', a', b', v) :: rest
        when Term.equal c c' && Term.equal a a' && Term.equal b b' ->
          m.itevs <- rest;
          v
      | _ -> reject (Skeleton_mismatch "ite fact out of order"))
  | _ -> reject (Skeleton_mismatch ("ill-sorted term " ^ Term.to_string t))

and e_pred m (t : Term.t) : Term.t =
  match t with
  | Term.Bool _ -> t
  | Term.Var (_, Sort.Bool) -> t
  | Term.Var _ -> reject (Skeleton_mismatch "ill-sorted variable")
  | Term.Cmp (op, a, b) ->
      if has_real a || has_real b then lookup m t
      else Term.mk_cmp op (e_int m a) (e_int m b)
  | Term.Eq (a, b) | Term.Ne (a, b) -> (
      let mk x y =
        match t with Term.Eq _ -> Term.mk_eq x y | _ -> Term.mk_ne x y
      in
      match Term.sort_of a with
      | Sort.Bool ->
          let p = Term.mk_iff (e_pred m a) (e_pred m b) in
          (match t with Term.Eq _ -> p | _ -> Term.mk_not p)
      | Sort.Real -> lookup m t
      | Sort.Int | Sort.Loc ->
          if has_real a || has_real b then lookup m t
          else mk (e_int m a) (e_int m b))
  | Term.And ts -> Term.mk_and (List.map (e_pred m) ts)
  | Term.Or ts -> Term.mk_or (List.map (e_pred m) ts)
  | Term.Not a -> Term.mk_not (e_pred m a)
  | Term.Imp (a, b) -> Term.mk_imp (e_pred m a) (e_pred m b)
  | Term.Iff (a, b) -> Term.mk_iff (e_pred m a) (e_pred m b)
  | Term.Ite (c, a, b) ->
      let c = e_pred m c in
      Term.mk_or
        [ Term.mk_and [ c; e_pred m a ];
          Term.mk_and [ Term.mk_not c; e_pred m b ] ]
  | Term.App _ -> lookup m t
  | Term.Int _ | Term.Real _ | Term.Binop _ | Term.Neg _ ->
      reject (Skeleton_mismatch ("ill-sorted term " ^ Term.to_string t))

(* ------------------------------------------------------------------ *)
(* NNF and propositional simplification                                *)
(* ------------------------------------------------------------------ *)

type bform = BTrue | BFalse | BLit of int * bool | BAnd of bform list | BOr of bform list

let rec to_bform (ids : int TermTbl.t) pol (t : Term.t) : bform =
  match t with
  | Term.Bool b -> if b = pol then BTrue else BFalse
  | Term.Not a -> to_bform ids (not pol) a
  | Term.And ts ->
      if pol then BAnd (List.map (to_bform ids true) ts)
      else BOr (List.map (to_bform ids false) ts)
  | Term.Or ts ->
      if pol then BOr (List.map (to_bform ids true) ts)
      else BAnd (List.map (to_bform ids false) ts)
  | Term.Imp (a, b) ->
      if pol then BOr [ to_bform ids false a; to_bform ids true b ]
      else BAnd [ to_bform ids true a; to_bform ids false b ]
  | Term.Iff (a, b) ->
      if pol then
        BOr
          [ BAnd [ to_bform ids true a; to_bform ids true b ];
            BAnd [ to_bform ids false a; to_bform ids false b ] ]
      else
        BOr
          [ BAnd [ to_bform ids true a; to_bform ids false b ];
            BAnd [ to_bform ids false a; to_bform ids true b ] ]
  | Term.Ne (a, b) -> to_bform ids (not pol) (Term.Eq (a, b))
  | Term.Var _ | Term.Cmp _ | Term.Eq _ -> (
      match TermTbl.find_opt ids t with
      | Some i -> BLit (i, pol)
      | None -> reject (Bad_tree ("atom missing from table: " ^ Term.to_string t)))
  | _ -> reject (Bad_tree ("non-atomic leaf: " ^ Term.to_string t))

let rec simplify (assign : int array) (f : bform) : bform =
  match f with
  | BTrue | BFalse -> f
  | BLit (i, pol) -> (
      match assign.(i) with
      | 0 -> f
      | 1 -> if pol then BTrue else BFalse
      | _ -> if pol then BFalse else BTrue)
  | BAnd fs ->
      let fs = List.map (simplify assign) fs in
      if List.exists (fun f -> f = BFalse) fs then BFalse
      else begin
        match List.filter (fun f -> f <> BTrue) fs with
        | [] -> BTrue
        | [ f ] -> f
        | fs -> BAnd fs
      end
  | BOr fs ->
      let fs = List.map (simplify assign) fs in
      if List.exists (fun f -> f = BTrue) fs then BTrue
      else begin
        match List.filter (fun f -> f <> BFalse) fs with
        | [] -> BFalse
        | [ f ] -> f
        | fs -> BOr fs
      end

(** [simplify assign f = BFalse], without building the simplified
    formula: a conjunction is false when a conjunct is, a disjunction
    when every disjunct is. *)
let rec is_false (assign : int array) (f : bform) : bool =
  match f with
  | BFalse -> true
  | BTrue -> false
  | BLit (i, pol) -> assign.(i) = if pol then 2 else 1
  | BAnd fs -> List.exists (is_false assign) fs
  | BOr fs -> List.for_all (is_false assign) fs

(* ------------------------------------------------------------------ *)
(* Theory refutations                                                  *)
(* ------------------------------------------------------------------ *)

(** Check a derivation of [k ≤ 0], [k > 0] from the literals assigned
    on the current path. [ctx] maps disequality atoms to the branch
    side currently active. *)
let check_trefut (atoms : Term.t array) (assign : int array)
    (tr : Proof.trefut) : unit =
  let natoms = Array.length atoms in
  let diseq_row i (side : [ `Le | `Ge ]) ctx =
    match List.assoc_opt i ctx with
    | Some (s, d) when s = side -> d
    | Some _ -> reject (Bad_refutation "wrong disequality branch")
    | None -> reject (Bad_refutation "disequality split not in scope")
  in
  let rec go ctx tr =
    match tr with
    | Proof.Dsplit (i, l, r) ->
        if i < 0 || i >= natoms then
          reject (Bad_refutation "split atom out of range");
        if assign.(i) <> 2 then
          reject (Bad_refutation "disequality split on non-false atom");
        let d =
          match atoms.(i) with
          | Term.Eq (a, b) -> (
              try Lin.sub (lin_of_term a) (lin_of_term b)
              with Nonlinear ->
                reject (Bad_refutation "nonlinear disequality"))
          | _ -> reject (Bad_refutation "disequality split on non-equality")
        in
        go ((i, (`Le, Lin.plus1 d)) :: ctx) l;
        go ((i, (`Ge, Lin.plus1 (Lin.scale (-1) d))) :: ctx) r
    | Proof.Steps steps ->
        if steps = [] then reject (Bad_refutation "empty derivation");
        let rows = Array.make (List.length steps) (Lin.const 0) in
        let row_of_src k = function
          | Proof.Hyp (i, pol, dir) ->
              if i < 0 || i >= natoms then
                reject (Bad_refutation "hypothesis atom out of range");
              if assign.(i) <> (if pol then 1 else 2) then
                reject (Bad_refutation "hypothesis not on this path");
              row_of_atom atoms.(i) pol dir
          | Proof.Step j ->
              if j < 0 || j >= k then
                reject (Bad_refutation "forward step reference");
              rows.(j)
          | Proof.Dle i -> diseq_row i `Le ctx
          | Proof.Dge i -> diseq_row i `Ge ctx
        in
        List.iteri
          (fun k step ->
            rows.(k) <-
              (match step with
              | Proof.Comb [] -> reject (Bad_refutation "empty combination")
              | Proof.Comb ks ->
                  List.fold_left
                    (fun acc (c, s) ->
                      if c < 0 then
                        reject (Bad_refutation "negative multiplier");
                      Lin.add acc (Lin.scale c (row_of_src k s)))
                    (Lin.const 0) ks
              | Proof.Tight s -> Lin.tighten (row_of_src k s)))
          steps;
        let final = rows.(Array.length rows - 1) in
        if not (Lin.is_const final && final.Lin.const > 0) then
          reject (Bad_refutation "derivation does not end in 0 < 0")
  in
  go [] tr

(* ------------------------------------------------------------------ *)
(* Main check                                                          *)
(* ------------------------------------------------------------------ *)

let names_of (t : Term.t) : string list =
  Term.VarSet.elements (Term.free_vars t)

(** Walk the fresh facts: every name must be new, every payload must
    only mention the goal's variables and earlier fresh names. Returns
    the populated mirror tables plus the allowed-defs set. *)
let build_mirror (goal : Term.t) (fresh : Proof.fresh list) :
    mirror * unit TermTbl.t =
  let known : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun x -> Hashtbl.replace known x ()) (names_of goal);
  let m = { keyed = TermTbl.create 32; itevs = [] } in
  let allowed : unit TermTbl.t = TermTbl.create 64 in
  let allow d = TermTbl.replace allowed d () in
  let apps : (string * Term.t list * Term.t) list ref = ref [] in
  let payload_ok t =
    List.for_all (Hashtbl.mem known) (names_of t)
  in
  let intro name =
    if Hashtbl.mem known name then
      reject (Bad_fresh ("name not fresh: " ^ name));
    Hashtbl.replace known name ()
  in
  let itevs = ref [] in
  List.iter
    (fun (f : Proof.fresh) ->
      match f with
      | Proof.Divmod (a, c, q) ->
          if c <= 0 then reject (Bad_fresh "non-positive divisor");
          if not (payload_ok a) then
            reject (Bad_fresh ("forward reference in divmod of " ^ q));
          intro q;
          let qv = Term.var ~sort:Sort.Int q in
          TermTbl.replace m.keyed
            (Term.Binop (Term.Div, a, Term.int c))
            qv;
          let r = Term.sub a (Term.mul (Term.int c) qv) in
          allow (Term.lt (Term.int (-c)) r);
          allow (Term.lt r (Term.int c));
          allow
            (Term.mk_imp (Term.ge a (Term.int 0)) (Term.ge r (Term.int 0)));
          allow
            (Term.mk_imp (Term.le a (Term.int 0)) (Term.le r (Term.int 0)))
      | Proof.Opaque (key, v, sort) ->
          if not (payload_ok key) then
            reject (Bad_fresh ("forward reference in opaque key of " ^ v));
          intro v;
          let vv = Term.var ~sort v in
          TermTbl.replace m.keyed key vv;
          (match key with
          | Term.Binop (Term.Mul, a, b) ->
              (* products are commutative: the solver registers both
                 orientations under one variable *)
              TermTbl.replace m.keyed (Term.Binop (Term.Mul, b, a)) vv
          | Term.App (f, args) ->
              (* congruence with every other application of the same
                 symbol is licensed (a superset of what the solver
                 emits under its pair filter — harmless, since defs
                 only strengthen the refuted conjunction soundly) *)
              List.iter
                (fun (f', args', vv') ->
                  if f = f' && List.length args = List.length args' then begin
                    let cong xs ys u w =
                      Term.mk_imp
                        (Term.mk_and (List.map2 Term.eq xs ys))
                        (Term.eq u w)
                    in
                    allow (cong args args' vv vv');
                    allow (cong args' args vv' vv)
                  end)
                !apps;
              apps := (f, args, vv) :: !apps
          | _ -> ())
      | Proof.IteV (c, a, b, v) ->
          if not (payload_ok c && payload_ok a && payload_ok b) then
            reject (Bad_fresh ("forward reference in ite of " ^ v));
          intro v;
          let vv = Term.var ~sort:Sort.Int v in
          itevs := (c, a, b, vv) :: !itevs;
          allow (Term.mk_imp c (Term.eq vv a));
          allow (Term.mk_imp (Term.mk_not c) (Term.eq vv b)))
    fresh;
  m.itevs <- List.rev !itevs;
  (m, allowed)

(** Enumerate a small input box and reject if the goal ever evaluates
    to [false] — pure ground evaluation, independent of everything
    above. Goals that cannot be evaluated (reals, applications, too
    many variables) are skipped. *)
let spot_check (goal : Term.t) : unit =
  let vars = Term.free_vars_sorted goal in
  if List.length vars <= 4 then
    match
      (try
         Eval.find_assignment ~ints:[ -2; -1; 0; 1; 2 ] vars (fun env ->
             match Eval.eval_bool env goal with
             | true -> None
             | false ->
                 Some
                   (String.concat ", "
                      (List.map
                         (fun (x, _) ->
                           Format.asprintf "%s = %a" x Eval.pp_value (env x))
                         vars)))
       with Eval.Unsupported _ | Division_by_zero | Not_found -> None)
    with
    | Some cex -> reject (Goal_falsified cex)
    | None -> ()

let check ?goal (p : Proof.t) : (unit, error) result =
  try
    (match goal with
    | Some g when not (Term.equal g p.Proof.goal) ->
        reject (Skeleton_mismatch "certificate is for a different goal")
    | _ -> ());
    let m, allowed = build_mirror p.Proof.goal p.Proof.fresh in
    (* every recorded def must be licensed by a fresh fact *)
    List.iter
      (fun d ->
        if not (TermTbl.mem allowed d) then
          reject (Bad_def (Term.to_string d)))
      p.Proof.defs;
    (* the recorded skeleton must be exactly the re-derived elaboration
       of the negated goal *)
    let skel = e_pred m (Term.mk_not p.Proof.goal) in
    if not (Term.equal skel p.Proof.skeleton) then
      reject
        (Skeleton_mismatch
           (Term.to_string skel ^ " <> " ^ Term.to_string p.Proof.skeleton));
    (* atoms must be boolean-sorted (they receive truth values in the
       model-extension argument) *)
    Array.iter
      (fun a ->
        match Term.sort_of a with
        | Sort.Bool -> ()
        | _ -> reject (Bad_tree "non-boolean atom")
        | exception Term.Ill_sorted _ -> reject (Bad_tree "ill-sorted atom"))
      p.Proof.atoms;
    let conj = Term.mk_and (p.Proof.skeleton :: p.Proof.defs) in
    (match conj with
    | Term.Bool false -> (
        match p.Proof.tree with
        | Proof.BoolLeaf -> ()
        | _ -> reject (Bad_tree "expected propositional leaf"))
    | Term.Bool true -> reject (Bad_tree "nothing to refute")
    | _ ->
        let ids : int TermTbl.t = TermTbl.create 64 in
        Array.iteri
          (fun i a -> if not (TermTbl.mem ids a) then TermTbl.add ids a i)
          p.Proof.atoms;
        let bf = to_bform ids true conj in
        let n = Array.length p.Proof.atoms in
        let assign = Array.make n 0 in
        (* The skeleton is a conjunction: it simplifies to false
           exactly when one of its conjuncts does, nested conjunctions
           flattened. [cur] holds each conjunct simplified under the
           path's assignment, and [nfalse] counts those that are false.
           Assigning an atom re-simplifies only the conjuncts it occurs
           in ([occ]); the others keep their value, and simplifying a
           simplified conjunct under more atoms gives what simplifying
           the original would. So each check reads what simplifying the
           whole skeleton under the path would give, without doing it. *)
        let rec conjuncts acc = function
          | BAnd fs -> List.fold_left conjuncts acc fs
          | f -> f :: acc
        in
        let cur = Array.of_list (List.rev (conjuncts [] (simplify assign bf))) in
        let occ = Array.make n [] in
        let rec note j = function
          | BTrue | BFalse -> ()
          | BLit (i, _) -> (
              match occ.(i) with
              | j' :: _ when j' = j -> ()
              | l -> occ.(i) <- j :: l)
          | BAnd fs | BOr fs -> List.iter (note j) fs
        in
        Array.iteri note cur;
        let nfalse =
          ref (Array.fold_left (fun k f -> if f = BFalse then k + 1 else k) 0 cur)
        in
        (* assign [i], returning the conjuncts it changed as they were *)
        let set i v =
          assign.(i) <- v;
          List.map
            (fun j ->
              let old = cur.(j) in
              let f = simplify assign old in
              if f = BFalse && old <> BFalse then incr nfalse;
              cur.(j) <- f;
              (j, old))
            occ.(i)
        in
        let unset i saved =
          assign.(i) <- 0;
          List.iter
            (fun (j, old) ->
              if cur.(j) = BFalse && old <> BFalse then decr nfalse;
              cur.(j) <- old)
            saved
        in
        let rec walk (t : Proof.tree) : unit =
          match t with
          | Proof.BoolLeaf ->
              if !nfalse = 0 then
                reject (Bad_tree "open path at propositional leaf")
          | Proof.TheoryLeaf tr -> check_trefut p.Proof.atoms assign tr
          | Proof.Unit (i, pol, sub) ->
              if i < 0 || i >= n then
                reject (Bad_tree "unit atom out of range");
              if assign.(i) <> 0 then
                reject (Bad_tree "unit on assigned atom");
              (* the opposite branch must close propositionally — that
                 is what makes covering only one side complete *)
              assign.(i) <- (if pol then 2 else 1);
              let closed =
                !nfalse > 0 || List.exists (fun j -> is_false assign cur.(j)) occ.(i)
              in
              assign.(i) <- 0;
              if not closed then reject (Bad_tree "unit literal not forced");
              let saved = set i (if pol then 1 else 2) in
              Fun.protect ~finally:(fun () -> unset i saved) (fun () -> walk sub)
          | Proof.Split (i, l, r) ->
              if i < 0 || i >= n then
                reject (Bad_tree "split atom out of range");
              if assign.(i) <> 0 then
                reject (Bad_tree "split on assigned atom");
              let saved = set i 1 in
              Fun.protect ~finally:(fun () -> unset i saved) (fun () -> walk l);
              let saved = set i 2 in
              Fun.protect ~finally:(fun () -> unset i saved) (fun () -> walk r)
        in
        walk p.Proof.tree);
    spot_check p.Proof.goal;
    Ok ()
  with
  | Reject e -> Error e
  | Term.Ill_sorted m -> Error (Bad_tree ("ill-sorted term: " ^ m))

let check_string ?goal (src : string) : (unit, error) result =
  match Proof.of_string src with
  | p -> check ?goal p
  | exception Proof.Parse_error m -> Error (Bad_sexp m)
  | exception Failure m -> Error (Bad_sexp m)
  | exception Invalid_argument m -> Error (Bad_sexp m)
  | exception Term.Ill_sorted m -> Error (Bad_sexp m)
