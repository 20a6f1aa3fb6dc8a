(** Terms of the quantifier-free refinement logic.

    A single syntactic category covers both integer-sorted expressions
    and boolean-sorted predicates; [sort_of] recovers the sort. Smart
    constructors perform light simplification (constant folding,
    flattening of [And]/[Or], double-negation elimination) so that the
    constraints shipped to the solver and printed in error messages stay
    readable.

    Small terms built through the smart constructors are
    {e hash-consed}: structurally equal terms under the size cap are
    physically equal, so {!equal} is O(1) on the fast path, {!hash} and
    {!free_vars} are memoized per term, and term-keyed tables ({!Tbl})
    avoid deep structural traversals.
    Terms above the cap stay raw (see [max_interned_size]); their
    {!hash}/{!free_vars} recurse one level and hit the memoized small
    children. The raw constructors remain exposed for pattern matching;
    terms built with them bypass interning and simply fall back to the
    structural (slow-path) implementations, so correctness never
    depends on interning. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** truncated integer division (Rust/OCaml [/]) *)
  | Mod  (** truncated remainder: sign follows the dividend *)

type cmpop =
  | Lt
  | Le
  | Gt
  | Ge

type t =
  | Var of string * Sort.t
  | Int of int
  | Real of float
  | Bool of bool
  | Binop of binop * t * t
  | Neg of t
  | Cmp of cmpop * t * t
  | Eq of t * t
  | Ne of t * t
  | And of t list
  | Or of t list
  | Not of t
  | Imp of t * t
  | Iff of t * t
  | Ite of t * t * t
  | App of string * t list
      (** uninterpreted function application; result sort is [Int] by
          convention (sufficient for our use: opaque abstractions of
          nonlinear arithmetic and the WP baseline's array reads) *)

module VarSet = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Equality                                                            *)
(* ------------------------------------------------------------------ *)

let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Var (x, s), Var (y, s') -> String.equal x y && Sort.equal s s'
  | Int x, Int y -> x = y
  | Real x, Real y -> Float.equal x y
  | Bool x, Bool y -> x = y
  | Binop (o, a1, a2), Binop (o', b1, b2) -> o = o' && equal a1 b1 && equal a2 b2
  | Neg a, Neg b | Not a, Not b -> equal a b
  | Cmp (o, a1, a2), Cmp (o', b1, b2) -> o = o' && equal a1 b1 && equal a2 b2
  | Eq (a1, a2), Eq (b1, b2)
  | Ne (a1, a2), Ne (b1, b2)
  | Imp (a1, a2), Imp (b1, b2)
  | Iff (a1, a2), Iff (b1, b2) ->
      equal a1 b1 && equal a2 b2
  | And xs, And ys | Or xs, Or ys -> equal_list xs ys
  | Ite (a1, a2, a3), Ite (b1, b2, b3) -> equal a1 b1 && equal a2 b2 && equal a3 b3
  | App (f, xs), App (g, ys) -> String.equal f g && equal_list xs ys
  | _ -> false

and equal_list xs ys =
  try List.for_all2 equal xs ys with Invalid_argument _ -> false

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

(** Per-term metadata, attached at intern time: a unique id, the full
    structural hash, and the lazily-memoized free-variable set. *)
type meta = { id : int; hash : int; mutable fvs : VarSet.t option }

(* The intern table is keyed by the bounded-depth polymorphic hash
   (O(1) regardless of term size) with phys-first structural equality:
   looking up a node whose children are already interned touches at
   most one level of structure. *)
module MetaTbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = Stdlib.Hashtbl.hash
end)

(* The intern table is domain-local: each OCaml 5 domain hash-conses
   into its own table, so parallel per-function checks never contend on
   (or race) a shared table. Terms built on one domain and inspected on
   another simply miss the local table and take the structural
   fallbacks — correctness never depends on interning. *)
type intern_state = { tbl : (t * meta) MetaTbl.t; mutable count : int }

let intern_dls : intern_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { tbl = MetaTbl.create (1 lsl 16); count = 0 })

let find_meta t = MetaTbl.find_opt (Domain.DLS.get intern_dls).tbl t

let hash_combine h1 h2 = (h1 * 0x01000193) lxor h2

(* the seed [hash_node] folds an [And]'s conjunct hashes into *)
let and_seed = 10

(** Full structural hash, memoized on interned terms: computing the
    hash of a node built from interned children is O(1). *)
let rec hash t =
  match find_meta t with Some (_, m) -> m.hash | None -> hash_node t

and hash_node t =
  match t with
  | Var (x, s) -> hash_combine 1 (hash_combine (Hashtbl.hash x) (Hashtbl.hash s))
  | Int n -> hash_combine 2 (Hashtbl.hash n)
  | Real x -> hash_combine 3 (Hashtbl.hash x)
  | Bool b -> hash_combine 4 (Bool.to_int b)
  | Binop (op, a, b) ->
      hash_combine 5 (hash_combine (Hashtbl.hash op) (hash_combine (hash a) (hash b)))
  | Neg a -> hash_combine 6 (hash a)
  | Cmp (op, a, b) ->
      hash_combine 7 (hash_combine (Hashtbl.hash op) (hash_combine (hash a) (hash b)))
  | Eq (a, b) -> hash_combine 8 (hash_combine (hash a) (hash b))
  | Ne (a, b) -> hash_combine 9 (hash_combine (hash a) (hash b))
  | And ts -> List.fold_left (fun h t -> hash_combine h (hash t)) and_seed ts
  | Or ts -> List.fold_left (fun h t -> hash_combine h (hash t)) 11 ts
  | Not a -> hash_combine 12 (hash a)
  | Imp (a, b) -> hash_combine 13 (hash_combine (hash a) (hash b))
  | Iff (a, b) -> hash_combine 14 (hash_combine (hash a) (hash b))
  | Ite (a, b, c) ->
      hash_combine 15 (hash_combine (hash a) (hash_combine (hash b) (hash c)))
  | App (f, ts) ->
      List.fold_left (fun h t -> hash_combine h (hash t))
        (hash_combine 16 (Hashtbl.hash f))
        ts

let intern_meta (t : t) : t * meta =
  let st = Domain.DLS.get intern_dls in
  match MetaTbl.find_opt st.tbl t with
  | Some cm -> cm
  | None ->
      let m = { id = st.count; hash = hash_node t; fvs = None } in
      st.count <- st.count + 1;
      MetaTbl.add st.tbl t (t, m);
      (t, m)

(* Interning large terms is counterproductive: the bounded polymorphic
   hash keying the intern table only samples a prefix of the term, so
   the thousands of near-identical query-sized conjunctions and
   implications built by the weakening loop (same hypothesis prefix,
   different tail or goal) collide into a few buckets, and every
   construction then pays a long bucket scan whose structural [equal]
   also resolves only at the end of the shared prefix. Gating on a
   small size cap keeps interning where it pays — atoms and
   qualifier-sized predicates, fully covered by the bounded hash — and
   is viral: a term containing a large subterm is itself large, so
   query-level wrappers ([Imp]/[Not] around a wide [And]) stay raw too
   and never reach those degenerate buckets. Raw terms fall back to the
   structural [hash]/[free_vars], which stay cheap level-by-level
   because their (small) children are still interned and memoized. *)
let max_interned_size = 32

let rec size_capped budget t =
  if budget <= 0 then 0
  else
    match t with
    | Var _ | Int _ | Real _ | Bool _ -> budget - 1
    | Neg a | Not a -> size_capped (budget - 1) a
    | Binop (_, a, b)
    | Cmp (_, a, b)
    | Eq (a, b)
    | Ne (a, b)
    | Imp (a, b)
    | Iff (a, b) ->
        size_capped (size_capped (budget - 1) a) b
    | And ts | Or ts | App (_, ts) -> List.fold_left size_capped (budget - 1) ts
    | Ite (a, b, c) -> size_capped (size_capped (size_capped (budget - 1) a) b) c

let internable t = size_capped max_interned_size t > 0

(** Intern a term node: returns the canonical physically-shared
    representative (for terms under the size cap; larger terms are
    returned as-is and handled by the structural fallbacks). All smart
    constructors route through this. *)
let hc (t : t) : t = if internable t then fst (intern_meta t) else t

(** Unique id of (the canonical representative of) a term. Stable for
    the lifetime of the intern table; useful as a cheap total order. *)
let term_id (t : t) : int = (snd (intern_meta t)).id

let interned_terms () = (Domain.DLS.get intern_dls).count

(** Drop all interning metadata. Existing terms stay valid ([hash] and
    [free_vars] recompute structurally); only sharing and memoization
    are lost. Exposed for long-running processes that want to bound the
    table. *)
let reset_intern () =
  let st = Domain.DLS.get intern_dls in
  MetaTbl.reset st.tbl;
  st.count <- 0

(** Hash tables keyed by terms, using the memoized structural hash and
    phys-first equality — the right key type for tables keyed by
    hypotheses or goals, such as the fixpoint's query memo. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let tt = hc (Bool true)
let ff = hc (Bool false)
let bool b = if b then tt else ff
let int n = hc (Int n)
let real x = hc (Real x)
let var ?(sort = Sort.Int) name = hc (Var (name, sort))
let bvar name = hc (Var (name, Sort.Bool))

let rec mk_not t =
  match t with
  | Bool b -> bool (not b)
  | Not t' -> t'
  | Cmp (Lt, a, b) -> hc (Cmp (Ge, a, b))
  | Cmp (Le, a, b) -> hc (Cmp (Gt, a, b))
  | Cmp (Gt, a, b) -> hc (Cmp (Le, a, b))
  | Cmp (Ge, a, b) -> hc (Cmp (Lt, a, b))
  | Eq (a, b) -> hc (Ne (a, b))
  | Ne (a, b) -> hc (Eq (a, b))
  | And ts -> hc (Or (List.map mk_not ts))
  | Or ts -> hc (And (List.map mk_not ts))
  | _ -> hc (Not t)

let mk_and ts =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | Bool true :: rest -> flatten acc rest
    | Bool false :: _ -> None
    | And sub :: rest -> flatten acc (sub @ rest)
    | t :: rest -> flatten (t :: acc) rest
  in
  match flatten [] ts with
  | None -> ff
  | Some [] -> tt
  | Some [ t ] -> t
  | Some ts -> hc (And ts)

(** [(mk_and ts, hash (mk_and ts))] for a caller that holds [hs], the
    {!hash} of each of [ts]: when [mk_and] builds [And ts] itself (two
    or more conjuncts, none [Bool] or [And]), its hash is folded from
    [hs] exactly as [hash_node] folds it, without a lookup per
    conjunct. *)
let mk_and_hashed (ts : t list) (hs : int list) : t * int =
  match ts with
  | _ :: _ :: _
    when List.for_all (function Bool _ | And _ -> false | _ -> true) ts ->
      (hc (And ts), List.fold_left hash_combine and_seed hs)
  | _ ->
      let t = mk_and ts in
      (t, hash t)

let mk_or ts =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | Bool false :: rest -> flatten acc rest
    | Bool true :: _ -> None
    | Or sub :: rest -> flatten acc (sub @ rest)
    | t :: rest -> flatten (t :: acc) rest
  in
  match flatten [] ts with
  | None -> tt
  | Some [] -> ff
  | Some [ t ] -> t
  | Some ts -> hc (Or ts)

let mk_imp a b =
  match (a, b) with
  | Bool true, b -> b
  | Bool false, _ -> tt
  | _, Bool true -> tt
  | _, Bool false -> mk_not a
  | _ -> hc (Imp (a, b))

let mk_iff a b =
  match (a, b) with
  | Bool true, b -> b
  | b, Bool true -> b
  | Bool false, b -> mk_not b
  | b, Bool false -> mk_not b
  | _ -> hc (Iff (a, b))

let rec mk_binop op a b =
  match (op, a, b) with
  | Add, Int x, Int y -> int (x + y)
  | Sub, Int x, Int y -> int (x - y)
  | Mul, Int x, Int y -> int (x * y)
  (* ground / and % fold with truncated (Rust/OCaml) semantics; a zero
     divisor stays symbolic *)
  | Div, Int x, Int y when y <> 0 -> int (x / y)
  | Mod, Int x, Int y when y <> 0 -> int (x mod y)
  | Add, t, Int 0 | Add, Int 0, t -> t
  | Sub, t, Int 0 -> t
  | Mul, t, Int 1 | Mul, Int 1, t -> t
  | Mul, _, Int 0 | Mul, Int 0, _ -> int 0
  | Div, t, Int 1 -> t
  (* negative constant divisors normalize to positive ones — exact for
     truncation: a / (-c) = -(a / c) and a % (-c) = a % c — so the LIA
     linearization (positive divisors only) covers them too *)
  | Div, t, Int c when c < 0 -> hc (Neg (mk_binop Div t (int (-c))))
  | Mod, t, Int c when c < 0 -> mk_binop Mod t (int (-c))
  | _ -> hc (Binop (op, a, b))

let add a b = mk_binop Add a b
let sub a b = mk_binop Sub a b
let mul a b = mk_binop Mul a b
let div a b = mk_binop Div a b
let md a b = mk_binop Mod a b

let neg = function Int n -> int (-n) | Neg t -> t | t -> hc (Neg t)

let mk_cmp op a b =
  match (a, b) with
  | Int x, Int y ->
      bool
        (match op with
        | Lt -> x < y
        | Le -> x <= y
        | Gt -> x > y
        | Ge -> x >= y)
  | _ -> hc (Cmp (op, a, b))

let lt a b = mk_cmp Lt a b
let le a b = mk_cmp Le a b
let gt a b = mk_cmp Gt a b
let ge a b = mk_cmp Ge a b

let mk_eq a b =
  match (a, b) with
  | Int x, Int y -> bool (x = y)
  | Bool x, Bool y -> bool (x = y)
  | Bool true, t | t, Bool true -> t
  | Bool false, t | t, Bool false -> mk_not t
  | _ -> if equal a b then tt else hc (Eq (a, b))

let mk_ne a b =
  match (a, b) with
  | Int x, Int y -> bool (x <> y)
  | Bool x, Bool y -> bool (x <> y)
  | _ -> if equal a b then ff else hc (Ne (a, b))

let eq = mk_eq
let ne = mk_ne

let ite c a b =
  match c with Bool true -> a | Bool false -> b | _ -> hc (Ite (c, a, b))

let app f ts = hc (App (f, ts))

(* ------------------------------------------------------------------ *)
(* Sorts                                                               *)
(* ------------------------------------------------------------------ *)

exception Ill_sorted of string

let rec sort_of = function
  | Var (_, s) -> s
  | Int _ -> Sort.Int
  | Real _ -> Sort.Real
  | Bool _ -> Sort.Bool
  | Binop (_, a, _) -> sort_of a
  | Neg a -> sort_of a
  | Cmp _ | Eq _ | Ne _ | And _ | Or _ | Not _ | Imp _ | Iff _ -> Sort.Bool
  | Ite (_, a, _) -> sort_of a
  | App _ -> Sort.Int

let is_pred t = Sort.equal (sort_of t) Sort.Bool

(* ------------------------------------------------------------------ *)
(* Free variables and substitution                                     *)
(* ------------------------------------------------------------------ *)

let rec fold_vars f acc = function
  | Var (x, s) -> f acc x s
  | Int _ | Real _ | Bool _ -> acc
  | Neg a | Not a -> fold_vars f acc a
  | Binop (_, a, b) | Cmp (_, a, b) | Eq (a, b) | Ne (a, b) | Imp (a, b) | Iff (a, b)
    ->
      fold_vars f (fold_vars f acc a) b
  | And ts | Or ts | App (_, ts) -> List.fold_left (fold_vars f) acc ts
  | Ite (a, b, c) -> fold_vars f (fold_vars f (fold_vars f acc a) b) c

(** Free-variable set, memoized on interned terms: after the first
    computation, [free_vars] on the same (physically shared) term is a
    table lookup — the payoff for cone-of-influence slicing, which
    re-tags the same hypotheses on every weakening iteration. *)
let rec free_vars t =
  match find_meta t with
  | Some (_, m) -> (
      match m.fvs with
      | Some s -> s
      | None ->
          let s = fvs_node t in
          m.fvs <- Some s;
          s)
  | None -> fvs_node t

and fvs_node = function
  | Var (x, _) -> VarSet.singleton x
  | Int _ | Real _ | Bool _ -> VarSet.empty
  | Neg a | Not a -> free_vars a
  | Binop (_, a, b) | Cmp (_, a, b) | Eq (a, b) | Ne (a, b) | Imp (a, b) | Iff (a, b)
    ->
      VarSet.union (free_vars a) (free_vars b)
  | And ts | Or ts | App (_, ts) ->
      List.fold_left (fun acc t -> VarSet.union acc (free_vars t)) VarSet.empty ts
  | Ite (a, b, c) ->
      VarSet.union (free_vars a) (VarSet.union (free_vars b) (free_vars c))

let free_vars_sorted t =
  fold_vars
    (fun acc x s -> if List.mem_assoc x acc then acc else (x, s) :: acc)
    [] t
  |> List.rev

let mem_var x t = VarSet.mem x (free_vars t)

(** Hypotheses numbered for cone-of-influence slicing. The slice of a
    goal keeps exactly the hypotheses transitively sharing a variable
    with it; dropping hypotheses only weakens the left-hand side of an
    entailment, so slicing is sound for validity. {!cone} pays once for
    what every goal's slice shares — each hypothesis's variables,
    numbered densely, and the components the hypotheses form by
    sharing variables — and {!cone_slice} then works on ints. Shared
    by [Solver.sliced_implication] and the fixpoint solver. A cone is
    scratch state of the caller that built it: {!cone_slice} writes its
    mark arrays. *)
type cone = {
  c_hyps : t array;
  c_vars : int array array;  (** each hypothesis's variables *)
  c_ids : (string, int) Hashtbl.t;  (** variable → its number *)
  c_comp : int array;
      (** each hypothesis's component, numbered densely in order of
          first hypothesis; −1 for a variable-free hypothesis, which no
          slice keeps *)
  c_var_comp : int array;  (** each variable's component *)
  c_ncomps : int;
  c_mark : int array;  (** per variable: the last slice whose seed held it *)
  c_comp_mark : int array;  (** per component: likewise *)
  c_work : int array;  (** the hypotheses still to scan *)
  mutable c_gen : int;
}

let cone (hyps : t list) : cone =
  let hyps = Array.of_list hyps in
  let ids = Hashtbl.create 64 in
  let vars =
    Array.map
      (fun h ->
        VarSet.fold
          (fun x acc ->
            match Hashtbl.find_opt ids x with
            | Some v -> v :: acc
            | None ->
                let v = Hashtbl.length ids in
                Hashtbl.add ids x v;
                v :: acc)
          (free_vars h) []
        |> Array.of_list)
      hyps
  in
  let nvars = Hashtbl.length ids in
  (* union-find over variables: a hypothesis links all of its own *)
  let parent = Array.init nvars Fun.id in
  let rec find v =
    let p = parent.(v) in
    if p = v then v
    else begin
      let r = find p in
      parent.(v) <- r;
      r
    end
  in
  Array.iter
    (fun vs ->
      for j = 1 to Array.length vs - 1 do
        let a = find vs.(0) and b = find vs.(j) in
        if a <> b then parent.(b) <- a
      done)
    vars;
  let dense = Array.make nvars (-1) in
  let ncomps = ref 0 in
  let comp_of_var v =
    let r = find v in
    if dense.(r) < 0 then begin
      dense.(r) <- !ncomps;
      incr ncomps
    end;
    dense.(r)
  in
  let comp =
    Array.map (fun vs -> if Array.length vs = 0 then -1 else comp_of_var vs.(0)) vars
  in
  let var_comp = Array.init nvars comp_of_var in
  {
    c_hyps = hyps;
    c_vars = vars;
    c_ids = ids;
    c_comp = comp;
    c_var_comp = var_comp;
    c_ncomps = !ncomps;
    c_mark = Array.make nvars 0;
    c_comp_mark = Array.make !ncomps 0;
    c_work = Array.make (Array.length hyps) 0;
    c_gen = 0;
  }

(** The slice of [seed]: the indices of the hypotheses it keeps, in
    this order — passes over the hypotheses in list order, each pass
    keeping every remaining hypothesis that shares a variable with the
    seed (which grows by each kept hypothesis's variables as the pass
    goes) until a pass keeps none; the list is the reverse of the order
    of keeping. [mk_and] of the slice builds the memo rows' key, and
    the exact counters pin it, so the order is part of the contract.
    Only the hypotheses of components the seed touches can be kept, so
    the passes scan only those: the others share no variable with
    anything a pass keeps, so skipping them changes no pass. *)
let cone_slice (c : cone) (seed : VarSet.t) : int list =
  c.c_gen <- c.c_gen + 1;
  let gen = c.c_gen in
  VarSet.iter
    (fun x ->
      match Hashtbl.find_opt c.c_ids x with
      | Some v ->
          c.c_mark.(v) <- gen;
          c.c_comp_mark.(c.c_var_comp.(v)) <- gen
      | None -> ())
    seed;
  let work = c.c_work in
  let n = ref 0 in
  for i = 0 to Array.length c.c_comp - 1 do
    let k = c.c_comp.(i) in
    if k >= 0 && c.c_comp_mark.(k) = gen then begin
      work.(!n) <- i;
      incr n
    end
  done;
  let mark = c.c_mark in
  let rec touches vs j =
    j < Array.length vs && (mark.(vs.(j)) = gen || touches vs (j + 1))
  in
  let kept = ref [] in
  let changed = ref true in
  while !changed && !n > 0 do
    changed := false;
    let rest = ref 0 in
    for r = 0 to !n - 1 do
      let i = work.(r) in
      let vs = c.c_vars.(i) in
      if touches vs 0 then begin
        kept := i :: !kept;
        for j = 0 to Array.length vs - 1 do
          mark.(vs.(j)) <- gen
        done;
        changed := true
      end
      else begin
        work.(!rest) <- i;
        incr rest
      end
    done;
    n := !rest
  done;
  !kept

(** The hypotheses at [ks]. *)
let cone_terms (c : cone) (ks : int list) : t list =
  List.map (fun i -> c.c_hyps.(i)) ks

(** Capture-free is not a concern: the logic is quantifier-free. *)
let rec subst (m : (string * t) list) t =
  match t with
  | Var (x, _) -> ( match List.assoc_opt x m with Some u -> u | None -> hc t)
  | Int _ | Real _ | Bool _ -> hc t
  | Binop (op, a, b) -> mk_binop op (subst m a) (subst m b)
  | Neg a -> neg (subst m a)
  | Cmp (op, a, b) -> mk_cmp op (subst m a) (subst m b)
  | Eq (a, b) -> mk_eq (subst m a) (subst m b)
  | Ne (a, b) -> mk_ne (subst m a) (subst m b)
  | And ts -> mk_and (List.map (subst m) ts)
  | Or ts -> mk_or (List.map (subst m) ts)
  | Not a -> mk_not (subst m a)
  | Imp (a, b) -> mk_imp (subst m a) (subst m b)
  | Iff (a, b) -> mk_iff (subst m a) (subst m b)
  | Ite (a, b, c) -> ite (subst m a) (subst m b) (subst m c)
  | App (f, ts) -> app f (List.map (subst m) ts)

let subst1 x u t = subst [ (x, u) ] t

(** Rename variables according to [m]; variables not in [m] are kept.
    Structure-preserving (no simplification), but still interned. *)
let rec rename_vars (m : (string * string) list) t =
  match t with
  | Var (x, s) -> (
      match List.assoc_opt x m with Some y -> hc (Var (y, s)) | None -> hc t)
  | Int _ | Real _ | Bool _ -> hc t
  | Binop (op, a, b) -> hc (Binop (op, rename_vars m a, rename_vars m b))
  | Neg a -> hc (Neg (rename_vars m a))
  | Cmp (op, a, b) -> hc (Cmp (op, rename_vars m a, rename_vars m b))
  | Eq (a, b) -> hc (Eq (rename_vars m a, rename_vars m b))
  | Ne (a, b) -> hc (Ne (rename_vars m a, rename_vars m b))
  | And ts -> hc (And (List.map (rename_vars m) ts))
  | Or ts -> hc (Or (List.map (rename_vars m) ts))
  | Not a -> hc (Not (rename_vars m a))
  | Imp (a, b) -> hc (Imp (rename_vars m a, rename_vars m b))
  | Iff (a, b) -> hc (Iff (rename_vars m a, rename_vars m b))
  | Ite (a, b, c) -> hc (Ite (rename_vars m a, rename_vars m b, rename_vars m c))
  | App (f, ts) -> hc (App (f, List.map (rename_vars m) ts))

(* ------------------------------------------------------------------ *)
(* Size & printing                                                     *)
(* ------------------------------------------------------------------ *)

let rec size = function
  | Var _ | Int _ | Real _ | Bool _ -> 1
  | Neg a | Not a -> 1 + size a
  | Binop (_, a, b) | Cmp (_, a, b) | Eq (a, b) | Ne (a, b) | Imp (a, b) | Iff (a, b)
    ->
      1 + size a + size b
  | And ts | Or ts | App (_, ts) -> List.fold_left (fun n t -> n + size t) 1 ts
  | Ite (a, b, c) -> 1 + size a + size b + size c

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"

let cmpop_str = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec pp fmt t =
  match t with
  | Var (x, _) -> Format.pp_print_string fmt x
  | Int n -> Format.pp_print_int fmt n
  | Real x -> Format.pp_print_float fmt x
  | Bool b -> Format.pp_print_bool fmt b
  | Binop (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp a (binop_str op) pp b
  | Neg a -> Format.fprintf fmt "(- %a)" pp a
  | Cmp (op, a, b) -> Format.fprintf fmt "%a %s %a" pp a (cmpop_str op) pp b
  | Eq (a, b) -> Format.fprintf fmt "%a = %a" pp a pp b
  | Ne (a, b) -> Format.fprintf fmt "%a != %a" pp a pp b
  | And ts ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " && ")
           pp)
        ts
  | Or ts ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " || ")
           pp)
        ts
  | Not a -> Format.fprintf fmt "!(%a)" pp a
  | Imp (a, b) -> Format.fprintf fmt "(%a => %a)" pp a pp b
  | Iff (a, b) -> Format.fprintf fmt "(%a <=> %a)" pp a pp b
  | Ite (a, b, c) -> Format.fprintf fmt "(if %a then %a else %a)" pp a pp b pp c
  | App (f, ts) ->
      Format.fprintf fmt "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp)
        ts

let to_string t = Format.asprintf "%a" pp t
