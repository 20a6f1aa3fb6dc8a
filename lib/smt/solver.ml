(** Validity and satisfiability checking for the quantifier-free
    refinement logic.

    Pipeline:
    + {b Elaboration}: integer division/modulo by a positive constant is
      linearized with fresh quotient/remainder variables under
      {e truncated} (Rust/OCaml) semantics — the remainder's sign
      follows the dividend's; products of two non-constants and general
      division are abstracted by opaque variables; uninterpreted
      applications are Ackermannized (opaque variables plus pairwise
      congruence constraints); [Ite] is lifted out of terms; atoms
      mentioning reals are abstracted as opaque boolean atoms (floats
      are never refined, only branched on).
    + {b DPLL(T)}: one search ({!search}) for [valid], [model] and
      [certify] forces conjunction literals, consults the theory, then
      splits on an atom.
    + {b Theory}: conjunctions of linear integer literals go to
      {!Lia.sat_literals} (Fourier–Motzkin with integer tightening).

    The checker is sound for validity: [valid t = true] implies [t]
    holds over the integers. It can be incomplete (a valid [t] may be
    reported invalid) when rational reasoning or opaque abstraction
    loses information — the safe polarity for a verifier. *)

type stats = {
  mutable queries : int;
  mutable theory_checks : int;
  mutable max_atoms : int;
}

(* The stats are domain-local so concurrent per-function checks neither
   race nor contend; the engine's profile merge step aggregates the
   per-domain counters. *)
let dls : stats Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { queries = 0; theory_checks = 0; max_atoms = 0 })

let stats () = Domain.DLS.get dls

let reset_stats () =
  let stats = stats () in
  stats.queries <- 0;
  stats.theory_checks <- 0;
  stats.max_atoms <- 0

(* ------------------------------------------------------------------ *)
(* Linear conversion of atoms                                          *)
(* ------------------------------------------------------------------ *)

exception Nonlinear

let rec lin_of_term (t : Term.t) : Lia.lin =
  match t with
  | Var (x, _) -> Lia.lin_var x
  | Int n -> Lia.lin_const n
  | Neg a -> Lia.lin_scale (-1) (lin_of_term a)
  | Binop (Add, a, b) -> Lia.lin_add (lin_of_term a) (lin_of_term b)
  | Binop (Sub, a, b) -> Lia.lin_sub (lin_of_term a) (lin_of_term b)
  | Binop (Mul, Int k, a) | Binop (Mul, a, Int k) ->
      Lia.lin_scale k (lin_of_term a)
  | _ -> raise Nonlinear

(** Convert an assigned atom into a theory literal. Boolean-variable
    atoms carry no arithmetic content and yield [None]. *)
let literal_of_atom (t : Term.t) (value : bool) : Lia.literal option =
  match t with
  | Term.Var (_, Sort.Bool) -> None
  | Term.Cmp (op, a, b) -> (
      try
        let la = lin_of_term a and lb = lin_of_term b in
        let d = Lia.lin_sub la lb in
        (* a op b  ~  d ⋈ 0 *)
        let le0 l = Some (Lia.Le0 l) in
        match (op, value) with
        | Term.Lt, true -> le0 { d with Lia.const = d.Lia.const + 1 }
        | Term.Lt, false -> le0 (Lia.lin_scale (-1) d)
        | Term.Le, true -> le0 d
        | Term.Le, false ->
            let nd = Lia.lin_scale (-1) d in
            le0 { nd with Lia.const = nd.Lia.const + 1 }
        | Term.Gt, true ->
            let nd = Lia.lin_scale (-1) d in
            le0 { nd with Lia.const = nd.Lia.const + 1 }
        | Term.Gt, false -> le0 d
        | Term.Ge, true -> le0 (Lia.lin_scale (-1) d)
        | Term.Ge, false -> le0 { d with Lia.const = d.Lia.const + 1 }
      with Nonlinear -> None)
  | Term.Eq (a, b) -> (
      try
        let d = Lia.lin_sub (lin_of_term a) (lin_of_term b) in
        if value then Some (Lia.Eq0 d) else Some (Lia.Ne0 d)
      with Nonlinear -> None)
  | _ -> None

(** The query's top-level unit facts, as linear theory literals:
    conjuncts forced by the boolean structure alone ([And] children
    under positive polarity, [Or]/[Imp] children under negation).
    Every model of the query satisfies them, so the div/mod encoding
    below may consult them to settle a dividend's sign up front. *)
let rec unit_facts ?(literal = literal_of_atom) acc (sign : bool) (t : Term.t) :
    Lia.literal list =
  let unit_facts = unit_facts ~literal in
  match (sign, t) with
  | true, Term.And ts ->
      List.fold_left (fun acc t -> unit_facts acc true t) acc ts
  | false, Term.Or ts ->
      List.fold_left (fun acc t -> unit_facts acc false t) acc ts
  | false, Term.Imp (a, b) -> unit_facts (unit_facts acc false b) true a
  | _, Term.Not a -> unit_facts acc (not sign) a
  | _, Term.Ne (a, b) -> unit_facts acc (not sign) (Term.Eq (a, b))
  | _, (Term.Cmp _ | Term.Eq _) -> (
      match literal t sign with Some l -> l :: acc | None -> acc)
  | _ -> acc

(* ------------------------------------------------------------------ *)
(* Elaboration                                                         *)
(* ------------------------------------------------------------------ *)

(* Hash table for {e small} term keys — elaboration's opaque keys and
   the DPLL atom table. These keys are leaf-sized, so the bounded
   polymorphic hash covers them fully — one cheap lookup per
   occurrence, with the phys-first [Term.equal] resolving hits
   immediately because such terms are interned by the smart
   constructors. Keying by the memoized full [Term.hash] ({!Term.Tbl})
   would route every occurrence through the intern table a second time
   for no gain; [Term.Tbl] suits tables keyed by whole hypotheses,
   whose large raw keys the bounded hash would collapse into a few
   buckets. *)
module SmallTbl = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Stdlib.Hashtbl.hash
end)

(** What a query's unit facts say of a dividend's sign: [>= 0] in every
    model, [<= 0] in every model, or unsettled (as far as one
    Fourier–Motzkin check of each case can tell). *)
type sign = Nonneg | Nonpos | Split

type elab_state = {
  mutable defs : Term.t list;  (** definitional constraints *)
  opaque : Term.t SmallTbl.t;  (** original term -> opaque var *)
  apps : (string, (Term.t * Term.t list) list) Hashtbl.t;
      (** fn symbol -> [(opaque var, elaborated args)] for Ackermann *)
  mutable counter : int;
  sign : (Term.t -> sign) option;
      (** the sign of a new division's dividend in every model of the
          query (see {!divmod}). [None] when one side of an implication
          is elaborated on its own ({!valid_under}): the facts of the
          whole query are unknown, so a new division only enters
          [divs], and its sign bounds are left to the caller. *)
  mutable divs : (Term.t * int * Term.t) list;
      (** each division's dividend, divisor and quotient, latest
          first *)
  mutable record : Proof.fresh list option;
      (** when [Some], every fresh-variable introduction is recorded
          (reversed) for a certificate; [sign] then always answers
          [Split], the form the independent replay checker re-derives
          without the unit facts *)
}

let new_state ?record ?sign () =
  {
    defs = [];
    opaque = SmallTbl.create 16;
    apps = Hashtbl.create 8;
    counter = 0;
    sign;
    divs = [];
    record;
  }

let fresh st prefix sort =
  st.counter <- st.counter + 1;
  Term.var ~sort (Printf.sprintf "$%s%d" prefix st.counter)

let record_fresh st (f : Proof.fresh) =
  match st.record with
  | None -> ()
  | Some acc -> st.record <- Some (f :: acc)

let var_name (v : Term.t) =
  match v with Term.Var (x, _) -> x | _ -> assert false

let opaque_of st key sort =
  let key = Term.hc key in
  match SmallTbl.find_opt st.opaque key with
  | Some v -> v
  | None ->
      let v = fresh st "o" sort in
      SmallTbl.add st.opaque key v;
      record_fresh st (Proof.Opaque (key, var_name v, sort));
      v

let rec has_real (t : Term.t) =
  match t with
  | Real _ -> true
  | Var (_, Sort.Real) -> true
  | Var _ | Int _ | Bool _ -> false
  | Neg a | Not a -> has_real a
  | Binop (_, a, b) | Cmp (_, a, b) | Eq (a, b) | Ne (a, b) | Imp (a, b) | Iff (a, b)
    ->
      has_real a || has_real b
  | And ts | Or ts | App (_, ts) -> List.exists has_real ts
  | Ite (a, b, c) -> has_real a || has_real b || has_real c

(** Truncated (Rust/OCaml) division semantics, shared between [a / c]
    and [a % c] for a positive constant [c]: one quotient variable [q]
    per (dividend, divisor) pair, with the remainder [r = a - c*q]
    constrained by

      -c < r < c,   a >= 0 ==> r >= 0,   a <= 0 ==> r <= 0

    so the remainder's sign follows the dividend's — exactly OCaml's
    [/]/[mod] and Rust's [/]/[%]. The previously-used Euclidean
    constraint [0 <= r < c] is {e unsound} for this operational
    semantics: it proves (-7)/2 = -4 and (-7) mod 2 = 1, while the
    interpreter computes -3 and -1. Sharing [q] also links [a / c] and
    [a % c] appearing in the same query via [a = c*q + r].

    The sign conditionals cost two extra DPLL branch atoms per
    division. When the query's unit facts already settle the dividend's
    sign (the common case: usize index arithmetic under hypotheses like
    [lo <= hi]), the unconditional one-sided bounds replace them — same
    strength, no case split. *)
let sign_bounds (sign : sign) (a : Term.t) (c : int) (q : Term.t) : Term.t list =
  let r = Term.sub a (Term.mul (Term.int c) q) in
  match sign with
  | Nonneg ->
      (* a >= 0 in every model: truncated = Euclidean *)
      [ Term.le (Term.int 0) r; Term.lt r (Term.int c) ]
  | Nonpos -> [ Term.lt (Term.int (-c)) r; Term.le r (Term.int 0) ]
  | Split ->
      [
        Term.lt (Term.int (-c)) r;
        Term.lt r (Term.int c);
        Term.mk_imp (Term.ge a (Term.int 0)) (Term.ge r (Term.int 0));
        Term.mk_imp (Term.le a (Term.int 0)) (Term.le r (Term.int 0));
      ]

let count_sign = function
  | Nonneg | Nonpos -> Profile.incr "solver.divmod_sign_known"
  | Split -> Profile.incr "solver.divmod_sign_split"

(** The literals [a < 0] and [a > 0]. *)
let neg_case (la : Lia.lin) = Lia.Le0 { la with Lia.const = la.Lia.const + 1 }

let pos_case (la : Lia.lin) =
  let n = Lia.lin_scale (-1) la in
  Lia.Le0 { n with Lia.const = n.Lia.const + 1 }

(** [sat ()], a sign check: its Fourier–Motzkin work is also counted
    apart, in [solver.divmod_fm_rows] and [solver.divmod_fm_row_copies],
    so the theory checks' share of [lia.fm_rows] stays comparable when
    sign checks are shared between queries. *)
let sign_check (sat : unit -> bool) : bool =
  let r0 = Profile.count "lia.fm_rows"
  and c0 = Profile.count "lia.fm_row_copies" in
  let r = sat () in
  Profile.add "solver.divmod_fm_rows" (Profile.count "lia.fm_rows" - r0);
  Profile.add "solver.divmod_fm_row_copies"
    (Profile.count "lia.fm_row_copies" - c0);
  r

(** [a]'s sign under the query's unit facts [units]: the negative case
    is asked first, the positive one only if it stands. *)
let sign_under (units : Lia.literal list Lazy.t) (a : Term.t) : sign =
  let refuted l =
    not (sign_check (fun () -> Lia.sat_literals (l :: Lazy.force units)))
  in
  match lin_of_term a with
  | exception Nonlinear -> Split
  | la ->
      if refuted (neg_case la) then Nonneg
      else if refuted (pos_case la) then Nonpos
      else Split

let divmod st (a : Term.t) (c : int) : Term.t * Term.t =
  let dkey = Term.hc (Term.Binop (Div, a, Term.int c)) in
  let q =
    match SmallTbl.find_opt st.opaque dkey with
    | Some q -> q
    | None ->
        let q = fresh st "q" Sort.Int in
        SmallTbl.add st.opaque dkey q;
        record_fresh st (Proof.Divmod (a, c, var_name q));
        st.divs <- (a, c, q) :: st.divs;
        Option.iter
          (fun sign ->
            let s = sign a in
            count_sign s;
            st.defs <- sign_bounds s a c q @ st.defs)
          st.sign;
        q
  in
  (q, Term.sub a (Term.mul (Term.int c) q))

(** Elaborate an integer-sorted term into a linear-safe one. *)
let rec elab_int st (t : Term.t) : Term.t =
  match t with
  | Var _ | Int _ -> t
  | Real _ -> opaque_of st t Sort.Int
  | Neg a -> Term.neg (elab_int st a)
  | Binop (Add, a, b) -> Term.add (elab_int st a) (elab_int st b)
  | Binop (Sub, a, b) -> Term.sub (elab_int st a) (elab_int st b)
  | Binop (Mul, a, b) -> (
      let a = elab_int st a and b = elab_int st b in
      match (a, b) with
      | Int _, _ | _, Int _ -> Term.mul a b
      | _ -> (
          (* nonlinear: abstract, but remember commutativity by also
             registering the flipped product under the same variable *)
          let key = Term.hc (Term.Binop (Mul, a, b)) in
          match SmallTbl.find_opt st.opaque key with
          | Some v -> v
          | None ->
              let v = fresh st "o" Sort.Int in
              SmallTbl.replace st.opaque key v;
              SmallTbl.replace st.opaque (Term.hc (Term.Binop (Mul, b, a))) v;
              record_fresh st (Proof.Opaque (key, var_name v, Sort.Int));
              v))
  | Binop (Div, a, Int c) when c > 0 ->
      let a = elab_int st a in
      fst (divmod st a c)
  | Binop (Mod, a, Int c) when c > 0 ->
      let a = elab_int st a in
      snd (divmod st a c)
  | Binop ((Div | Mod), _, _) -> opaque_of st t Sort.Int
  | App (f, args) ->
      let args = List.map (elab_int st) args in
      let key = Term.App (f, args) in
      let v = opaque_of st key Sort.Int in
      let prev = try Hashtbl.find st.apps f with Not_found -> [] in
      if not (List.exists (fun (v', _) -> Term.equal v v') prev) then begin
        (* Ackermann congruence with earlier applications of f. To keep
           the quadratic blowup in check on array-heavy queries (the WP
           baseline), once a symbol has many applications we only relate
           pairs that already share one argument syntactically — e.g.
           sel(a,i) vs sel(a,j). Dropping the other pairs only weakens
           the hypotheses, which is sound for validity. *)
        let filtered = List.length args >= 2 && List.length prev >= 8 in
        List.iter
          (fun (v', args') ->
            if
              List.length args = List.length args'
              && ((not filtered) || List.exists2 Term.equal args args')
            then
              st.defs <-
                Term.mk_imp
                  (Term.mk_and (List.map2 Term.eq args args'))
                  (Term.eq v v')
                :: st.defs)
          prev;
        Hashtbl.replace st.apps f ((v, args) :: prev)
      end;
      v
  | Ite (c, a, b) ->
      let c = elab_pred st c in
      let a = elab_int st a and b = elab_int st b in
      let v = fresh st "ite" Sort.Int in
      record_fresh st (Proof.IteV (c, a, b, var_name v));
      st.defs <-
        Term.mk_imp c (Term.eq v a)
        :: Term.mk_imp (Term.mk_not c) (Term.eq v b)
        :: st.defs;
      v
  | Bool _ | Cmp _ | Eq _ | Ne _ | And _ | Or _ | Not _ | Imp _ | Iff _ ->
      raise (Term.Ill_sorted (Term.to_string t))

(** Elaborate a boolean-sorted term (a predicate). *)
and elab_pred st (t : Term.t) : Term.t =
  match t with
  | Bool _ -> t
  | Var (_, Sort.Bool) -> t
  | Var _ -> raise (Term.Ill_sorted (Term.to_string t))
  | Cmp (op, a, b) ->
      if has_real a || has_real b then opaque_of st t Sort.Bool
      else Term.mk_cmp op (elab_int st a) (elab_int st b)
  | Eq (a, b) | Ne (a, b) -> (
      let mk x y = match t with Eq _ -> Term.mk_eq x y | _ -> Term.mk_ne x y in
      match Term.sort_of a with
      | Sort.Bool ->
          let p = Term.mk_iff (elab_pred st a) (elab_pred st b) in
          (match t with Eq _ -> p | _ -> Term.mk_not p)
      | Sort.Real -> opaque_of st t Sort.Bool
      | Sort.Int | Sort.Loc ->
          if has_real a || has_real b then opaque_of st t Sort.Bool
          else mk (elab_int st a) (elab_int st b))
  | And ts -> Term.mk_and (List.map (elab_pred st) ts)
  | Or ts -> Term.mk_or (List.map (elab_pred st) ts)
  | Not a -> Term.mk_not (elab_pred st a)
  | Imp (a, b) -> Term.mk_imp (elab_pred st a) (elab_pred st b)
  | Iff (a, b) -> Term.mk_iff (elab_pred st a) (elab_pred st b)
  | Ite (c, a, b) ->
      let c = elab_pred st c in
      Term.mk_or
        [
          Term.mk_and [ c; elab_pred st a ];
          Term.mk_and [ Term.mk_not c; elab_pred st b ];
        ]
  | App _ ->
      (* boolean-valued uninterpreted application: opaque atom *)
      opaque_of st t Sort.Bool
  | Int _ | Real _ | Binop _ | Neg _ ->
      raise (Term.Ill_sorted (Term.to_string t))

(* ------------------------------------------------------------------ *)
(* NNF over atom ids                                                   *)
(* ------------------------------------------------------------------ *)

type bform =
  | BTrue
  | BFalse
  | BLit of int * bool  (** atom id, polarity *)
  | BAnd of bform list
  | BOr of bform list

type atoms = {
  table : int SmallTbl.t;  (** structural keys, phys-fast on interned terms *)
  mutable list : Term.t list;  (** reversed *)
  mutable n : int;
}

let atom_id atoms (t : Term.t) =
  match SmallTbl.find_opt atoms.table t with
  | Some i -> i
  | None ->
      let i = atoms.n in
      atoms.n <- i + 1;
      atoms.list <- t :: atoms.list;
      SmallTbl.add atoms.table t i;
      i

(** Convert an elaborated predicate to NNF over atom ids. *)
let rec to_bform atoms pol (t : Term.t) : bform =
  match t with
  | Bool b -> if b = pol then BTrue else BFalse
  | Not a -> to_bform atoms (not pol) a
  | And ts ->
      if pol then BAnd (List.map (to_bform atoms true) ts)
      else BOr (List.map (to_bform atoms false) ts)
  | Or ts ->
      if pol then BOr (List.map (to_bform atoms true) ts)
      else BAnd (List.map (to_bform atoms false) ts)
  (* The children of an implication or equivalence are numbered right
     to left: [b]'s atoms before [a]'s, so a query [¬(lhs ⇒ g)] numbers
     its goal first. The ids fix the order of the theory literals, hence
     the order Fourier–Motzkin meets variables and breaks ties in, and a
     context query ({!valid_under}) rebuilds that order; the bindings
     keep it explicit. *)
  | Imp (a, b) ->
      if pol then
        let fb = to_bform atoms true b in
        let fa = to_bform atoms false a in
        BOr [ fa; fb ]
      else
        let fb = to_bform atoms false b in
        let fa = to_bform atoms true a in
        BAnd [ fa; fb ]
  | Iff (a, b) ->
      let fb' = to_bform atoms (not pol) b in
      let fa' = to_bform atoms false a in
      let fb = to_bform atoms pol b in
      let fa = to_bform atoms true a in
      BOr [ BAnd [ fa; fb ]; BAnd [ fa'; fb' ] ]
  | Ne (a, b) -> to_bform atoms (not pol) (Term.Eq (a, b))
  | Var _ | Cmp _ | Eq _ -> BLit (atom_id atoms t, pol)
  | Ite _ | App _ | Int _ | Real _ | Binop _ | Neg _ ->
      raise (Term.Ill_sorted (Term.to_string t))

(* ------------------------------------------------------------------ *)
(* DPLL                                                                *)
(* ------------------------------------------------------------------ *)

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

let rec first_lit = function
  | BLit (i, _) -> Some i
  | BAnd fs | BOr fs -> List.find_map first_lit fs
  | BTrue | BFalse -> None

(** The literals reached from the root of [f] through [BAnd] nodes
    alone, in structure order, before [acc]. Every model of [f] gives
    each this polarity: the opposite value falsifies each conjunction
    on the way up, so [f] simplifies to [BFalse] propositionally. *)
let rec forced_literals f acc =
  match f with
  | BLit (i, pol) -> (i, pol) :: acc
  | BAnd fs -> List.fold_right forced_literals fs acc
  | BOr _ | BTrue | BFalse -> acc

(** [f i v l acc] folded over the atoms [i] that [assign] gives a value
    [v] and that have a theory literal [l], in ascending id order. Each
    theory consultation converts its atoms afresh. *)
let fold_assigned (atom_arr : Term.t array) (assign : int array) f acc =
  let acc = ref acc in
  Array.iteri
    (fun i v ->
      if v <> 0 then
        match literal_of_atom atom_arr.(i) (v = 1) with
        | Some l -> acc := f i (v = 1) l !acc
        | None -> ())
    assign;
  !acc

(** The theory step of {!valid}'s and {!model}'s search: are the theory
    literals of the atoms [assign] gives a value feasible? They are
    listed highest id first, whatever order they were assigned in. *)
let theory_sat (atom_arr : Term.t array) (assign : int array) : bool =
  Lia.sat_literals (fold_assigned atom_arr assign (fun _ _ l acc -> l :: acc) [])

(** The theory step of the certifying search: the theory literals of the
    atoms [assign] gives a value are infeasible, with a {!Farkas.refute}
    certificate. [None] when they are feasible or when Farkas cannot
    certify them. Each call is one [cert.theory_checks]. *)
let theory_refute (atom_arr : Term.t array) (assign : int array) :
    Proof.trefut option =
  Profile.incr "cert.theory_checks";
  let hyps =
    fold_assigned atom_arr assign (fun i v l acc -> (i, v, l) :: acc) []
  in
  if Lia.sat_literals (List.map (fun (_, _, l) -> l) hyps) then None
  else
    match Farkas.refute hyps with
    | Some tr -> Some tr
    | None ->
        (* the theory found the path infeasible but the certifying
           mirror could not reproduce it — a completeness gap, not a
           soundness problem; the caller keeps searching deeper or
           gives up *)
        Profile.incr "cert.farkas_gap";
        None

(** Where {!search} ends: every path closed, with the tree of its
    closing steps, or the assignment at the first open leaf. *)
type outcome = Closed of Proof.tree | Open of int array

exception Open_leaf

(** The DPLL(T) search of [f] over [n] atoms. Every literal the
    conjunctive structure forces ({!forced_literals}), however deeply
    nested in conjunctions, is assigned as a [Unit] with no theory step,
    and the skeleton is simplified once for them all; an atom forced
    both ways takes its first polarity, and the path closes. With
    [shortest], such a path keeps only the [Unit]s up to the first that
    closes it, as assigning one literal at a time would. Once none is
    forced, [theory] is asked about the assigned literals: it returns
    the leaf of a path it closes, [None] for one it leaves open. Only an
    open path that is not complete is split, on its first unassigned
    atom, true first. The first open complete path ends the search. A
    hypothesis of n literals thus costs one theory step, not one per
    literal. *)
let search ?(shortest = false) ~(theory : int array -> Proof.tree option)
    (n : int) (f : bform) : outcome =
  let assign = Array.make n 0 in
  let value pol = if pol then 1 else 2 in
  (* the literals of [set] up to the first that closes [f], assigned
     again one by one *)
  let first_closing f set =
    List.iter (fun (i, _) -> assign.(i) <- 0) set;
    let rec take acc = function
      | [] -> List.rev acc
      | (i, pol) :: rest ->
          assign.(i) <- value pol;
          if simplify assign f = BFalse then List.rev ((i, pol) :: acc)
          else take ((i, pol) :: acc) rest
    in
    take [] set
  in
  let rec go f =
    match simplify assign f with
    | BFalse -> Proof.BoolLeaf
    | f' -> (
        match forced_literals f' [] with
        | _ :: _ as forced ->
            (* assigned in order: a repeated atom keeps its first
               polarity *)
            let set =
              List.filter
                (fun (i, pol) ->
                  assign.(i) = 0 && (assign.(i) <- value pol; true))
                forced
            in
            let set =
              if shortest && simplify assign f' = BFalse then
                first_closing f' set
              else set
            in
            let sub = go f' in
            List.iter (fun (i, _) -> assign.(i) <- 0) set;
            List.fold_right (fun (i, pol) t -> Proof.Unit (i, pol, t)) set sub
        | [] -> (
            match theory assign with
            | Some leaf -> leaf
            | None -> (
                match first_lit f' with
                | None -> raise Open_leaf
                | Some i ->
                    assign.(i) <- 1;
                    let l = go f' in
                    assign.(i) <- 2;
                    let r = go f' in
                    assign.(i) <- 0;
                    Proof.Split (i, l, r))))
  in
  (* an open leaf leaves its path's assignment in [assign] *)
  match go f with t -> Closed t | exception Open_leaf -> Open assign

(** The assignment at the first open leaf of [f]'s satisfiability
    search, atom ids ascending, or [None] when every path closes.
    [count]: each theory step is one [solver.theory_checks]. *)
let sat_search ~count (atom_arr : Term.t array) (f : bform) :
    (int * bool) list option =
  let stats = stats () in
  let theory assign =
    if count then stats.theory_checks <- stats.theory_checks + 1;
    (* the tree is dropped: any leaf closes the path *)
    if theory_sat atom_arr assign then None else Some Proof.BoolLeaf
  in
  match search ~theory (Array.length atom_arr) f with
  | Closed _ -> None
  | Open assign ->
      let m = ref [] in
      Array.iteri (fun i v -> if v <> 0 then m := (i, v = 1) :: !m) assign;
      Some (List.rev !m)

(** A refutation of [f] as a {!Proof.tree}: closed paths carry a
    propositional [BoolLeaf] or a {!theory_refute} certificate. [None]
    when the skeleton is satisfiable {e or} when some infeasible path
    cannot be certified — never a wrong tree (the replay checker
    re-validates everything anyway). *)
let refute (atom_arr : Term.t array) (f : bform) : Proof.tree option =
  let theory assign =
    Option.map (fun tr -> Proof.TheoryLeaf tr) (theory_refute atom_arr assign)
  in
  match search ~shortest:true ~theory (Array.length atom_arr) f with
  | Closed t -> Some t
  | Open _ -> None

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let clear_cache () = ()

(** Run a search, charging its time to DPLL and counting the theory
    checks it made. *)
let timed_search (search : stats -> 'a) : 'a =
  let stats = stats () in
  let tc0 = stats.theory_checks in
  let t_dpll = Unix.gettimeofday () in
  let r = search stats in
  Profile.add_time "solver.dpll_s" (Unix.gettimeofday () -. t_dpll);
  Profile.add "solver.theory_checks" (stats.theory_checks - tc0);
  r

let note_atoms stats n = if n > stats.max_atoms then stats.max_atoms <- n

(** The atom table of an elaborated query [full] and its NNF over it. *)
let skeleton (full : Term.t) : Term.t array * bform =
  let atoms = { table = SmallTbl.create 64; list = []; n = 0 } in
  let f = to_bform atoms true full in
  (Array.of_list (List.rev atoms.list), f)

(** Decide an elaborated query: boolean skeleton, then [search atoms
    full skeleton], which finds an assignment or [None]. *)
let decide ?(search = fun atom_arr _ f -> sat_search ~count:true atom_arr f)
    (full : Term.t) : bool =
  match full with
  | Bool b -> b
  | _ ->
      let atom_arr, f = skeleton full in
      note_atoms (stats ()) (Array.length atom_arr);
      timed_search (fun _ -> Option.is_some (search atom_arr full f))

(** [t] elaborated, with its definitions: the sign bounds of its
    divisions follow [t]'s unit facts. *)
let elab_query (t : Term.t) : Term.t =
  let st = new_state ~sign:(sign_under (lazy (unit_facts [] true t))) () in
  let t' = elab_pred st t in
  Term.mk_and (t' :: st.defs)

(** [sat t]: is [t] satisfiable over the integers? May over-approximate
    (answer [true] for an unsatisfiable [t]) but [false] is definite. *)
let sat_raw ?search (t : Term.t) : bool =
  let t_elab = Unix.gettimeofday () in
  let full = elab_query t in
  Profile.add_time "solver.elab_s" (Unix.gettimeofday () -. t_elab);
  decide ?search full

let count_query () =
  let stats = stats () in
  stats.queries <- stats.queries + 1;
  Profile.incr "solver.queries"

let sat (t : Term.t) : bool =
  count_query ();
  sat_raw t

(** A validity query for a non-[Bool] term, decided by [solve]. *)
let solve_valid (solve : unit -> bool) : bool =
  count_query ();
  let t0 = Unix.gettimeofday () in
  let r = solve () in
  Profile.add_time "solver.solve_s" (Unix.gettimeofday () -. t0);
  r

(** [valid t]: does [t] hold for all integer assignments? [true] is
    definite; [false] may be incompleteness. *)
let valid_gen ?search (t : Term.t) : bool =
  match t with
  | Bool b ->
      (* trivial goals still count as queries *)
      count_query ();
      Profile.incr "solver.trivial";
      b
  | _ -> solve_valid (fun () -> not (sat_raw ?search (Term.mk_not t)))

let valid t = valid_gen t
let valid_by search = valid_gen ~search:(fun atom_arr full _ -> search atom_arr full)

(* ------------------------------------------------------------------ *)
(* Hypotheses prepared for many goals                                  *)
(* ------------------------------------------------------------------ *)

type literals = {
  numbers : int SmallTbl.t;  (** atom → its number *)
  mutable atoms : Term.t array;  (** by number *)
  mutable converted : Lia.literal option option array;
      (** [2·number + value] → the atom's literal, once converted *)
}

let literals () =
  { numbers = SmallTbl.create 64; atoms = [||]; converted = [||] }

let atom_number (tbl : literals) (atom : Term.t) : int =
  match SmallTbl.find_opt tbl.numbers atom with
  | Some i -> i
  | None ->
      let i = SmallTbl.length tbl.numbers in
      if i = Array.length tbl.atoms then begin
        let cap = max 64 (2 * i) in
        tbl.atoms <- Array.append tbl.atoms (Array.make (cap - i) atom);
        tbl.converted <-
          Array.append tbl.converted (Array.make (2 * (cap - i)) None)
      end;
      tbl.atoms.(i) <- atom;
      SmallTbl.add tbl.numbers atom i;
      i

(** {!literal_of_atom} of atom number [i], converted once per table. *)
let shared_literal (tbl : literals) (i : int) (v : bool) =
  let k = (2 * i) + Bool.to_int v in
  match tbl.converted.(k) with
  | Some l -> l
  | None ->
      let l = literal_of_atom tbl.atoms.(i) v in
      tbl.converted.(k) <- Some l;
      l

(** The atom and polarity of a predicate that {!to_bform} turns into
    one literal. *)
let rec atom_literal (t : Term.t) : (Term.t * bool) option =
  match t with
  | Var _ | Cmp _ | Eq _ -> Some (t, true)
  | Ne (a, b) -> Some (Term.Eq (a, b), false)
  | Not a -> Option.map (fun (x, pol) -> (x, not pol)) (atom_literal a)
  | _ -> None

(* A flat query — a hypothesis that is a conjunction of literals, with
   definitions that are literals too (division sign bounds) — prepared
   for DPLL(T). For a goal [g] that is one literal, the query
   [¬(lhs ⇒ g) ∧ defs] is [BAnd [BAnd [lhs's literals; ¬g]; defs]]:
   [to_bform] numbers [g]'s atom 0, then [lhs]'s atoms in order, then
   the definitions', and the search forces every literal, then makes
   one theory check of the literals listed highest id first — unless an
   atom is forced both ways, which closes the search with no check. Prepared queries add to peak memory, so
   they are kept small: atoms by their number in the shared table, the
   theory's split in flat arrays. *)
type prepared = {
  p_atoms : int array;
      (** [2·number + polarity] of each atom, in [to_bform]'s order *)
  p_conflict : bool;  (** an atom occurs under both polarities *)
  p_theory : Lia.context;  (** their literals, highest id first *)
}

let prepare (literals : literals) (conjuncts : (Term.t * bool) list) : prepared =
  let seen = Hashtbl.create 64 in
  let atoms = ref [] and conflict = ref false in
  List.iter
    (fun (a, pol) ->
      let i = atom_number literals a in
      match Hashtbl.find_opt seen i with
      | Some pol' -> if pol <> pol' then conflict := true
      | None ->
          Hashtbl.add seen i pol;
          atoms := ((2 * i) + Bool.to_int pol) :: !atoms)
    conjuncts;
  let literal x = shared_literal literals (x lsr 1) (x land 1 = 1) in
  {
    p_atoms = Array.of_list (List.rev !atoms);
    p_conflict = !conflict;
    p_theory = Lia.context (List.filter_map literal !atoms);
  }

type divisions = (Term.t * int * Term.t) list
(** (dividend, divisor, quotient) of each division, first made first *)

(* A hypothesis elaborated once, from a fresh state and without the
   query's unit facts: its divisions get their sign bounds per query. *)
type context = {
  c_lhs : Term.t;
  c_defs : Term.t list;  (** definitions (none when [c_divs] is not empty) *)
  c_divs : divisions;
  c_fresh : int;  (** fresh variables the elaboration created *)
  c_flat : bool;  (** a conjunction of literals with no definitions *)
  mutable c_after : (divisions * (Term.t * divisions)) list;
      (** goal divisions → the elaboration after them, and its own
          divisions *)
  mutable c_signs : (Term.t * sign) list;
      (** dividend → its sign under the hypothesis's unit facts alone *)
  (* dropped by {!forget}: *)
  mutable c_facts : Lia.literal list option;
      (** the hypothesis's unit facts, latest first *)
  mutable c_cases :
    (Term.t * (Lia.context Lazy.t * Lia.context Lazy.t)) list;
      (** dividend → [a < 0 :: facts] and [a > 0 :: facts], prepared for
          the goal's unit fact *)
  mutable c_variants : (int * Term.t list * prepared) list;
      (** the query prepared after [k] goal divisions, with these
          definitions *)
}

let conjuncts (t : Term.t) = match t with Term.And ts -> ts | t -> [ t ]

(** {!decide} on [¬(lhs ⇒ g) ∧ defs] for the goal literal [(atom,
    pol)], from the query [prep] prepares without the goal; [None] when
    the query already holds the literal [¬g], which the prepared order
    does not place (the goal's atom, numbered 0, would list it last). *)
let sat_prepared literals (prep : unit -> prepared) (atom, pol) : bool option =
  timed_search @@ fun stats ->
  let p = prep () in
  let n = Array.length p.p_atoms in
  let g = atom_number literals atom in
  let rec find k =
    if k = n then None
    else if p.p_atoms.(k) lsr 1 = g then Some k
    else find (k + 1)
  in
  (* the query asserts the goal negated *)
  let q = not pol in
  match find 0 with
  | Some k when p.p_atoms.(k) land 1 = Bool.to_int q -> None
  | found ->
      note_atoms stats (if Option.is_none found then n + 1 else n);
      (* a goal the hypothesis holds is a unit conflict *)
      if p.p_conflict || Option.is_some found then Some false
      else begin
        stats.theory_checks <- stats.theory_checks + 1;
        Some (Lia.sat_with p.p_theory (shared_literal literals g q))
      end

type hyp = {
  h_lhs : Term.t;
  h_ctx : context option Lazy.t;
      (** [None]: the elaboration was ill-sorted, or divides and also
          creates another kind of fresh variable *)
  h_literals : literals;
}

(** [lhs] elaborated after the goal divisions [gdivs]: on a state that
    holds their quotients, as {!sat_raw} leaves it after the goal. *)
let elaborate ?(gdivs : divisions = []) (lhs : Term.t) : Term.t * elab_state =
  let st = new_state () in
  List.iter
    (fun (a, d, q) ->
      SmallTbl.add st.opaque (Term.hc (Term.Binop (Div, a, Term.int d))) q)
    gdivs;
  st.counter <- List.length gdivs;
  let flat ts =
    List.for_all (function Term.Bool _ | Term.And _ -> false | _ -> true) ts
  in
  let lhs' =
    match lhs with
    | Term.And (_ :: _ :: _ as ts) ->
        (* [elab_pred] on the [And]; keep [lhs] itself when no conjunct
           changed and [mk_and] would rebuild it as is *)
        let ts' = List.map (elab_pred st) ts in
        if List.for_all2 ( == ) ts ts' && flat ts then lhs
        else Term.mk_and ts'
    | _ -> elab_pred st lhs
  in
  (lhs', st)

let context (lhs : Term.t) : context option =
  match elaborate lhs with
  | exception Term.Ill_sorted _ -> None
  | _, st when st.divs <> [] && st.counter <> List.length st.divs -> None
  | c_lhs, st ->
      let c_flat =
        st.defs = []
        && List.for_all (fun t -> Option.is_some (atom_literal t)) (conjuncts c_lhs)
      in
      Some
        {
          c_lhs;
          c_defs = st.defs;
          c_divs = List.rev st.divs;
          c_fresh = st.counter;
          c_flat;
          c_after = [];
          c_signs = [];
          c_facts = None;
          c_cases = [];
          c_variants = [];
        }

let hyp ?(literals = literals ()) (lhs : Term.t) : hyp =
  {
    h_lhs = lhs;
    h_ctx = lazy (context lhs);
    h_literals = literals;
  }

(** The elaborated query [¬(lhs ⇒ g') ∧ defs]. *)
let full_query lhs (g' : Term.t) defs =
  Term.mk_and (Term.mk_not (Term.mk_imp lhs g') :: defs)

let find_term (a : Term.t) l =
  List.find_map (fun (b, v) -> if Term.equal a b then Some v else None) l

(** The hypothesis elaborated after the goal divisions [gdivs], once
    per list of them: {!sat_raw} elaborates the goal first, so the
    hypothesis reuses the goal's quotient of a division they share, and
    numbers its own after the goal's. *)
let after h c (gdivs : divisions) : Term.t * divisions =
  if gdivs = [] || c.c_divs = [] then (c.c_lhs, c.c_divs)
  else
    let same (a, d, _) (a', d', _) = d = d' && Term.equal a a' in
    match List.find_opt (fun (g, _) -> List.equal same g gdivs) c.c_after with
    | Some (_, e) -> e
    | None ->
        let lhs, st = elaborate ~gdivs h.h_lhs in
        let e = (lhs, List.rev st.divs) in
        c.c_after <- (gdivs, e) :: c.c_after;
        e

(** The hypothesis's unit facts, latest first: the query's when the
    goal adds none. *)
let facts h c =
  match c.c_facts with
  | Some f -> f
  | None ->
      let literal t v =
        shared_literal h.h_literals (atom_number h.h_literals t) v
      in
      let f = unit_facts ~literal [] true h.h_lhs in
      c.c_facts <- Some f;
      f

(** [a]'s sign under the hypothesis's unit facts alone, decided once. *)
let fact_sign h c (a : Term.t) : sign =
  match find_term a c.c_signs with
  | Some s -> s
  | None ->
      let s = sign_under (Lazy.from_val (facts h c)) a in
      c.c_signs <- (a, s) :: c.c_signs;
      s

(** [a]'s sign under the facts and the goal's unit fact [l]: {!sat_raw}
    asks [sat_literals (case :: facts @ [l])], which is
    [Lia.sat_with (Lia.context (case :: facts)) (Some l)]. *)
let goal_sign h c (a : Term.t) (l : Lia.literal) : sign =
  match lin_of_term a with
  | exception Nonlinear -> Split
  | la ->
      let neg, pos =
        match find_term a c.c_cases with
        | Some cs -> cs
        | None ->
            let case l = lazy (Lia.context (l :: facts h c)) in
            let cs = (case (neg_case la), case (pos_case la)) in
            c.c_cases <- (a, cs) :: c.c_cases;
            cs
      in
      let refuted ctx =
        not (sign_check (fun () -> Lia.sat_with (Lazy.force ctx) (Some l)))
      in
      if refuted neg then Nonneg else if refuted pos then Nonpos else Split

(** The flat query after [k] goal divisions with definitions [defs],
    prepared once. *)
let variant h c k lhs defs : prepared =
  match
    List.find_opt
      (fun (k', defs', _) -> k = k' && List.equal Term.equal defs defs')
      c.c_variants
  with
  | Some (_, _, p) -> p
  | None ->
      let p =
        prepare h.h_literals
          (List.filter_map atom_literal (conjuncts lhs @ defs))
      in
      c.c_variants <- (k, defs, p) :: c.c_variants;
      p

(** Why a query did not take the prepared path; each bumps
    [solver.rebuilt.<reason>] beside [solver.hyp_rebuilt]. *)
type reason =
  | No_context  (** the hypothesis has no context *)
  | Not_flat  (** the hypothesis is not a conjunction of literals *)
  | Goal_not_literal  (** the goal is not one literal *)
  | Goal_defs
      (** the goal is ill-sorted, or makes a fresh variable other than a
          division's quotient, or divides beside a hypothesis that makes
          one *)
  | Sign_split  (** some division's sign is unsettled *)
  | Negation_held  (** the query holds the goal's negation *)

let rebuilt reason =
  Profile.incr "solver.hyp_rebuilt";
  Profile.incr
    (match reason with
    | No_context -> "solver.rebuilt.no_context"
    | Not_flat -> "solver.rebuilt.not_flat"
    | Goal_not_literal -> "solver.rebuilt.goal_not_literal"
    | Goal_defs -> "solver.rebuilt.goal_defs"
    | Sign_split -> "solver.rebuilt.sign_split"
    | Negation_held -> "solver.rebuilt.negation_held")

type plan =
  | Alone of reason  (** decide [¬t] as {!valid} would, without the context *)
  | Full of reason * Term.t  (** the elaborated query, from the context *)
  | Prepared of (unit -> prepared) * (unit -> Term.t) * (Term.t * bool)
      (** the query prepared without the goal, the elaborated query, and
          the goal's literal *)

(** The plan once every division of the query has its sign. *)
let plan_signed h c k lhs g' signed goal =
  List.iter (fun (_, _, _, s) -> count_sign s) signed;
  let defs =
    List.fold_left (fun acc (a, d, q, s) -> sign_bounds s a d q @ acc) [] signed
  in
  if List.exists (fun (_, _, _, s) -> s = Split) signed then
    Full (Sign_split, full_query lhs g' defs)
  else
    Prepared
      ( (fun () -> variant h c k lhs defs),
        (fun () -> full_query lhs g' defs),
        goal )

(** The plan of a query whose goal or hypothesis divides: the goal [g]
    elaborated as [g'] with divisions [gdivs], the hypothesis after
    them, and every division's sign bounds in {!sat_raw}'s order (the
    hypothesis's latest first, then the goal's). A dividing goal has no
    unit fact, so the query's unit facts are the hypothesis's, and each
    sign is decided once per dividend; under a goal that does not
    divide, each hypothesis division's sign is checked with the goal's
    fact. *)
let divided h c g g' (gdivs : divisions) goal : plan =
  let k = List.length gdivs in
  let lhs, hdivs = after h c gdivs in
  match unit_facts [] false g with
  | [] ->
      let signed =
        List.map (fun (a, d, q) -> (a, d, q, fact_sign h c a)) (gdivs @ hdivs)
      in
      plan_signed h c k lhs g' signed goal
  | [ l ] when k = 0 ->
      let signed =
        List.map (fun (a, d, q) -> (a, d, q, goal_sign h c a l)) hdivs
      in
      plan_signed h c k lhs g' signed goal
  | _ -> Alone Goal_not_literal

(** How to decide [¬(lhs ⇒ g)]. [valid t] elaborates [g], then [lhs],
    on one state. When [g] alone creates nothing, it reads nothing
    either (every lookup on an empty state misses and creates), so in
    either order [lhs] meets an empty state: the context's elaboration
    is exactly what [valid t] would build. When [g] only divides, [lhs]
    meets a state holding the goal's quotients, which {!after}
    rebuilds. *)
let plan (h : hyp) (g : Term.t) : plan =
  let st = new_state () in
  match elab_pred st g with
  | exception Term.Ill_sorted _ -> Alone Goal_defs
  | g' -> (
      match Lazy.force h.h_ctx with
      | None -> Alone No_context
      | Some c when st.counter = 0 && c.c_divs = [] -> (
          let full () = full_query c.c_lhs g' c.c_defs in
          match atom_literal g' with
          | Some goal when c.c_flat ->
              Prepared ((fun () -> variant h c 0 c.c_lhs []), full, goal)
          | Some _ -> Full (Not_flat, full ())
          | None -> Full (Goal_not_literal, full ()))
      | Some c ->
          let k = st.counter in
          if
            k <> List.length st.divs
            || (k > 0 && c.c_fresh > List.length c.c_divs)
          then Alone Goal_defs
          else (
            match atom_literal g' with
            | None -> Alone Goal_not_literal
            | Some _ when not c.c_flat -> Alone Not_flat
            | Some goal -> divided h c g g' (List.rev st.divs) goal))

(** [sat (¬t)] for [t = lhs ⇒ g]. *)
let sat_under (h : hyp) (g : Term.t) (t : Term.t) : bool =
  let t_elab = Unix.gettimeofday () in
  let plan = plan h g in
  Profile.add_time "solver.elab_s" (Unix.gettimeofday () -. t_elab);
  match plan with
  | Prepared (prep, full, goal) -> (
      match sat_prepared h.h_literals prep goal with
      | Some r ->
          Profile.incr "solver.hyp_reused";
          r
      | None ->
          rebuilt Negation_held;
          decide (full ()))
  | Full (reason, full) ->
      rebuilt reason;
      decide full
  | Alone reason ->
      rebuilt reason;
      sat_raw (Term.mk_not t)

let forget (h : hyp) =
  if Lazy.is_val h.h_ctx then
    Option.iter
      (fun c ->
        c.c_facts <- None;
        c.c_cases <- [];
        c.c_variants <- [])
      (Lazy.force h.h_ctx)

let valid_under (h : hyp) (g : Term.t) : bool =
  match (h.h_lhs, g) with
  | Term.Bool _, _ | _, Term.Bool _ -> valid (Term.mk_imp h.h_lhs g)
  | lhs, _ ->
      solve_valid (fun () -> not (sat_under h g (Term.mk_imp lhs g)))

(** The exact implication the WP verifier hands to the validity check:
    the hypotheses sliced to the cone of influence of [goal]. *)
let sliced_implication (hyps : Term.t list) (goal : Term.t) : Term.t =
  let seed = Term.free_vars goal in
  let hyps =
    if Term.VarSet.is_empty seed then hyps
    else
      let c = Term.cone hyps in
      Term.cone_terms c (Term.cone_slice c seed)
  in
  Term.mk_imp (Term.mk_and hyps) goal

(* ------------------------------------------------------------------ *)
(* Certificates and models                                             *)
(* ------------------------------------------------------------------ *)

(** Produce a replayable validity certificate for [goal] with the
    refutation [search], or [None] if it cannot close the skeleton
    (including when [goal] is simply not valid). Independent of
    {!valid}: the div/mod encoding always takes the split form the
    replay checker knows how to re-derive. [search atom_arr conj f] gets
    the atom table, the conjunction of skeleton and defs, and its NNF. *)
let certify_gen search (goal : Term.t) : Proof.t option =
  let t0 = Unix.gettimeofday () in
  let result =
    match
      let neg = Term.mk_not goal in
      let st = new_state ~record:[] ~sign:(fun _ -> Split) () in
      let neg' = elab_pred st neg in
      let fresh = List.rev (Option.value st.record ~default:[]) in
      let defs = st.defs in
      let full = Term.mk_and (neg' :: defs) in
      match full with
      | Term.Bool false ->
          Some
            {
              Proof.goal;
              fresh;
              skeleton = neg';
              defs;
              atoms = [||];
              tree = Proof.BoolLeaf;
            }
      | Term.Bool true -> None
      | _ -> (
          let atom_arr, f = skeleton full in
          match search atom_arr full f with
          | None -> None
          | Some tree ->
              Some
                { Proof.goal; fresh; skeleton = neg'; defs; atoms = atom_arr;
                  tree })
    with
    | exception Term.Ill_sorted _ -> None
    | r -> r
  in
  Profile.add_time "cert.certify_s" (Unix.gettimeofday () -. t0);
  result

let certify = certify_gen (fun atom_arr _ f -> refute atom_arr f)
let certify_by search = certify_gen (fun atom_arr full _ -> search atom_arr full)

(** A satisfying assignment for [t] over its free variables, from the
    assignment [search] finds, verified by ground evaluation before
    being returned — [Some env] is definite. [None] means "no model
    found": unsatisfiable, or the model search / extraction /
    evaluation lost the witness (opaque abstraction, reals, interpreted
    applications). *)
let model_gen search (t : Term.t) :
    (string * Eval.value) list option =
  match
    let full = elab_query t in
    match full with
    | Term.Bool false -> None
    | Term.Bool true -> Some ([||], [])
    | _ ->
        let atom_arr, f = skeleton full in
        Option.map (fun asn -> (atom_arr, asn)) (search atom_arr full f)
  with
  | exception Term.Ill_sorted _ -> None
  | None -> None
  | Some (atom_arr, asn) -> (
      let hyps =
        List.filter_map (fun (i, v) -> literal_of_atom atom_arr.(i) v) asn
      in
      match Farkas.model_literals hyps with
      | None -> None
      | Some ints -> (
          let bools =
            List.filter_map
              (fun (i, v) ->
                match atom_arr.(i) with
                | Term.Var (x, Sort.Bool) -> Some (x, v)
                | _ -> None)
              asn
          in
          let env =
            List.map
              (fun (x, s) ->
                match s with
                | Sort.Bool ->
                    ( x,
                      Eval.VBool
                        (match List.assoc_opt x bools with
                        | Some b -> b
                        | None -> false) )
                | _ ->
                    ( x,
                      Eval.VInt
                        (match List.assoc_opt x ints with
                        | Some n -> n
                        | None -> 0) ))
              (Term.free_vars_sorted t)
          in
          let lookup x =
            match List.assoc_opt x env with
            | Some v -> v
            | None -> Eval.VInt 0
          in
          match Eval.eval_bool lookup t with
          | true -> Some env
          | false -> None
          | exception Eval.Unsupported _ -> None
          | exception Division_by_zero -> None))

let model = model_gen (fun atom_arr _ f -> sat_search ~count:false atom_arr f)

(** A verified falsifying assignment for [t]: a model of [¬t]. The
    witness behind an [invalid] verdict. *)
let counterexample (t : Term.t) : (string * Eval.value) list option =
  model (Term.mk_not t)

let counterexample_by search t =
  model_gen (fun atom_arr full _ -> search atom_arr full) (Term.mk_not t)
