(** Term-level abstract environment for pre-solver discharge.

    Holds the {e linear} consequences of a clause's hypotheses as a
    difference-bound matrix over the hypothesis variables plus a
    virtual zero node: entry [(i, j) ↦ c] asserts [vᵢ − vⱼ ≤ c], and
    edges to/from the zero node encode unary bounds ([x ≤ c],
    [−x ≤ c]). The matrix is closed by Floyd–Warshall, so every query
    is an O(1) table lookup plus endpoint arithmetic.

    Deliberately weaker than {!Dom}: no congruence component and no
    div/mod evaluation. Everything this environment can prove is a
    positive-combination (Fourier–Motzkin) consequence of the
    hypotheses after the same strict→non-strict and gcd normalization
    the solver applies to its input constraints — so a clause
    discharged here is one the solver would also prove, which is what
    keeps [--absint] verdicts byte-identical to [--no-absint] and lets
    [--absint-crosscheck] re-solve every discharged clause without
    disagreement. Anything outside that fragment (nonlinear atoms,
    div/mod, disjunctive hypotheses) simply contributes nothing and the
    clause falls through to SMT. *)

open Flux_smt
module SMap = Lia.SMap

(* Saturating weight arithmetic on unboxed ints: [inf] ([max_int]) is
   +∞. Weights derived from term constants fit comfortably; a sum of
   two stays far from wrap-around, and [clamp] brings it back into
   [[-big, big)]. [min] and [<=] on ints are the order with +∞ on
   top. *)
let big = 1 lsl 60
let inf = max_int
let clamp c = if c >= big then inf else max (-big) c
let w_add a b = if a = inf || b = inf then inf else clamp (a + b)
let w_min (a : int) b = min a b
let w_le (a : int) b = a <= b

type t = {
  bot : bool;  (** hypotheses are contradictory: everything is entailed *)
  idx : int SMap.t;  (** variable → matrix index; index 0 is the zero node *)
  m : int array array;  (** closed DBM; [inf] is no edge *)
}

let top = { bot = false; idx = SMap.empty; m = [| [| 0 |] |] }
let bot = { top with bot = true }
let is_bot (e : t) = e.bot

(* ------------------------------------------------------------------ *)
(* Linearization                                                       *)
(* ------------------------------------------------------------------ *)

exception Nonlinear

let rec lin_of_term (t : Term.t) : Lia.lin =
  match t with
  | Term.Int n -> Lia.lin_const n
  | Term.Var (x, s) when Sort.equal s Sort.Int -> Lia.lin_var x
  | Term.Neg a -> Lia.lin_scale (-1) (lin_of_term a)
  | Term.Binop (Term.Add, a, b) -> Lia.lin_add (lin_of_term a) (lin_of_term b)
  | Term.Binop (Term.Sub, a, b) -> Lia.lin_sub (lin_of_term a) (lin_of_term b)
  | Term.Binop (Term.Mul, Term.Int k, a) | Term.Binop (Term.Mul, a, Term.Int k)
    ->
      Lia.lin_scale k (lin_of_term a)
  | _ -> raise Nonlinear

(* ------------------------------------------------------------------ *)
(* Constraint collection                                               *)
(* ------------------------------------------------------------------ *)

(* An atomic fact [lin ≤ 0]. Equalities contribute one in each
   direction; strict inequalities are tightened by 1 up front, exactly
   as the solver's normalization does. *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

(* gcd-normalize [lin ≤ 0] the same way the solver normalizes its input
   constraints (divide by the coefficient gcd, floor the constant).
   Applied only to original hypothesis atoms — everything derived
   afterwards stays at unit coefficients, inside rational FM's power. *)
let tighten (l : Lia.lin) : Lia.lin =
  let g = SMap.fold (fun _ c acc -> gcd c acc) l.Lia.coeffs 0 in
  if g <= 1 then l
  else
    {
      Lia.coeffs = SMap.map (fun c -> c / g) l.Lia.coeffs;
      const = fdiv l.Lia.const g;
    }

exception Contradiction

(** Accumulate the ≤-atoms of a hypothesis term. Only conjunctive
    structure is mined; disjunctions and boolean atoms are skipped
    (sound: skipping a hypothesis only weakens the environment). *)
let rec collect (acc : Lia.lin list) (t : Term.t) : Lia.lin list =
  match t with
  | Term.Bool true -> acc
  | Term.Bool false -> raise Contradiction
  | Term.And ts -> List.fold_left collect acc ts
  | Term.Not inner -> (
      match Term.mk_not inner with
      | Term.Not _ -> acc (* no usable normal form *)
      | t' -> collect acc t')
  | Term.Cmp (op, a, b) -> (
      try
        let d = Lia.lin_sub (lin_of_term a) (lin_of_term b) in
        let atom =
          match op with
          | Term.Le -> d (* a − b ≤ 0 *)
          | Term.Lt -> Lia.lin_add d (Lia.lin_const 1) (* a − b + 1 ≤ 0 *)
          | Term.Ge -> Lia.lin_scale (-1) d
          | Term.Gt -> Lia.lin_add (Lia.lin_scale (-1) d) (Lia.lin_const 1)
        in
        tighten atom :: acc
      with Nonlinear -> acc)
  | Term.Eq (a, b) -> (
      try
        let d = Lia.lin_sub (lin_of_term a) (lin_of_term b) in
        tighten d :: tighten (Lia.lin_scale (-1) d) :: acc
      with Nonlinear -> acc)
  | _ -> acc

(* ------------------------------------------------------------------ *)
(* Building and closing the DBM                                        *)
(* ------------------------------------------------------------------ *)

(* Install [lin ≤ 0] into the matrix when it fits the DBM fragment:
   at most two variables with coefficients {+1}, {−1} or {+1, −1}. *)
let install idx m (l : Lia.lin) =
  let bindings = SMap.bindings l.Lia.coeffs in
  let edge i j c = m.(i).(j) <- w_min m.(i).(j) c in
  match bindings with
  | [] -> if l.Lia.const > 0 then raise Contradiction
  | [ (x, 1) ] -> edge (SMap.find x idx) 0 (-l.Lia.const) (* x ≤ −k *)
  | [ (x, -1) ] -> edge 0 (SMap.find x idx) (-l.Lia.const) (* −x ≤ −k *)
  | [ (x, 1); (y, -1) ] | [ (y, -1); (x, 1) ] ->
      edge (SMap.find x idx) (SMap.find y idx) (-l.Lia.const)
  | _ -> () (* outside the DBM fragment: drop (sound) *)

(* Floyd–Warshall. Round [k] reads [m.(i).(k)] once per row [i], before
   the row's inner loop. That is exact: within the round, the loop
   writes [m.(i).(k)] only at [j = k], with [min m.(i).(k) (m.(i).(k) +
   m.(k).(k))], which changes it only when [m.(k).(k) < 0]; weights
   only decrease, so [m.(k).(k)] is then still negative when the
   rounds end and the matrix is ⊥, whatever its other entries hold. A
   row with no edge to [k] gains nothing from round [k]. *)
let close m =
  let n = Array.length m in
  for k = 0 to n - 1 do
    let mk = m.(k) in
    for i = 0 to n - 1 do
      let mi = m.(i) in
      let mik = mi.(k) in
      if mik <> inf then
        for j = 0 to n - 1 do
          mi.(j) <- w_min mi.(j) (w_add mik mk.(j))
        done
    done
  done;
  (* negative self-loop = contradictory hypotheses *)
  let neg = ref false in
  for i = 0 to n - 1 do
    if m.(i).(i) < 0 then neg := true
  done;
  !neg

(* Number the atoms' variables 1, 2, … in order of first occurrence
   (index 0 is the zero node); also returns how many there are. *)
let index (atoms : Lia.lin list) : int SMap.t * int =
  List.fold_left
    (fun acc l ->
      SMap.fold
        (fun x _ ((idx, n) as acc) ->
          if SMap.mem x idx then acc else (SMap.add x (n + 1) idx, n + 1))
        l.Lia.coeffs acc)
    (SMap.empty, 0) atoms

let of_atoms (atoms : Lia.lin list) : t =
  let idx, vars = index atoms in
  let n = vars + 1 in
  let m = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0 else inf)) in
  try
    List.iter (install idx m) atoms;
    if close m then bot else { bot = false; idx; m }
  with Contradiction -> bot

(** Build the environment from a clause's hypotheses. *)
let of_hyps (hyps : Term.t list) : t =
  try of_atoms (List.fold_left collect [] hyps) with Contradiction -> bot

(* ------------------------------------------------------------------ *)
(* The slices of one hypothesis                                        *)
(* ------------------------------------------------------------------ *)

(* A slice's environment is assembled from its components' closures
   only while every closure of its atoms is exact: a simple path's
   weight is at most the sum [w] of the atoms' constants in absolute
   value, and Floyd–Warshall adds two of them, so [2w < big] keeps
   every sum clear of [clamp]. *)
let exact_limit = big / 4

(** The environments of the cone-of-influence slices of one hypothesis
    (its conjuncts numbered in a {!Term.cone}), each equal to
    [of_hyps [mk_and slice]] — the same indices and the same closed
    matrix — from one closure per component.

    The DBM's edges join the variables of one conjunct, so the
    components the conjuncts form by sharing variables meet only at
    the zero node, and a slice is a union of whole components. A path
    between two nodes of a slice that detours through another
    component leaves and re-enters at 0: the detour is a cycle at 0,
    of weight ≥ 0 unless that component is contradictory. So, with
    every closure exact (see [exact_limit]), a slice is ⊥ exactly when
    one of its components is, and otherwise its closed matrix holds
    each component's closure, and [d(x, 0) + d(0, y)] between two
    components. A slice whose constants could reach the clamp is
    closed from its own atoms, as [of_hyps] would. *)
type slices = {
  s_cone : Term.cone;
  s_atoms : Lia.lin list option Lazy.t array;
      (** each conjunct's atoms as [collect] gathers them; [None]: it is
          contradictory *)
  s_comps : (t * int) Lazy.t array;
      (** each component closed alone (when exact), and the sum of its
          atoms' constants in absolute value, capped at [exact_limit] *)
}

let weight (atoms : Lia.lin list) : int =
  List.fold_left
    (fun w l ->
      let c = l.Lia.const in
      if c <= -exact_limit || c >= exact_limit then exact_limit
      else min exact_limit (w + abs c))
    0 atoms

let slices (c : Term.cone) : slices =
  let atoms =
    Array.map
      (fun h -> lazy (try Some (collect [] h) with Contradiction -> None))
      c.Term.c_hyps
  in
  let members = Array.make c.Term.c_ncomps [] in
  Array.iteri
    (fun i k -> if k >= 0 then members.(k) <- i :: members.(k))
    c.Term.c_comp;
  let closure k =
    lazy
      (let atoms =
         List.concat_map (fun i -> Option.get (Lazy.force atoms.(i))) members.(k)
       in
       let w = weight atoms in
       ((if w < exact_limit then of_atoms atoms else top), w))
  in
  { s_cone = c; s_atoms = atoms; s_comps = Array.init c.Term.c_ncomps closure }

(** [slice s ks] is [of_hyps [mk_and hs]] for the conjuncts [hs] at
    [ks], which must be a slice {!Term.cone_slice} returned. *)
let slice (s : slices) (ks : int list) : t =
  let lists = List.map (fun k -> Lazy.force s.s_atoms.(k)) ks in
  if List.mem None lists then bot
  else
    (* [collect] over [mk_and hs] gathers the conjuncts' atoms in this
       order *)
    let atoms = List.fold_left (fun acc l -> Option.get l @ acc) [] lists in
    let closed =
      List.sort_uniq compare (List.map (fun k -> s.s_cone.Term.c_comp.(k)) ks)
      |> List.map (fun k -> Lazy.force s.s_comps.(k))
    in
    if
      List.fold_left (fun w (_, cw) -> min exact_limit (w + cw)) 0 closed
      >= exact_limit
    then of_atoms atoms
    else if List.exists (fun (e, _) -> e.bot) closed then bot
    else
      let idx, vars = index atoms in
      let n = vars + 1 in
      (* each variable's component closure and its index there; the
         zero node is index 0 in every closure *)
      let home = Array.make n top and at = Array.make n 0 in
      SMap.iter
        (fun x i ->
          let k =
            s.s_cone.Term.c_var_comp.(Hashtbl.find s.s_cone.Term.c_ids x)
          in
          let e, _ = Lazy.force s.s_comps.(k) in
          home.(i) <- e;
          at.(i) <- SMap.find x e.idx)
        idx;
      let m = Array.make_matrix n n inf in
      for i = 0 to n - 1 do
        let ei = home.(i) in
        let from = ei.m.(at.(i)) in
        for j = 0 to n - 1 do
          let ej = home.(j) in
          m.(i).(j) <-
            (if i = 0 then ej.m.(0).(at.(j))
             else if j = 0 || ej == ei then from.(at.(j))
             else w_add from.(0) ej.m.(0).(at.(j)))
        done
      done;
      { bot = false; idx; m }

(** Extend with one more hypothesis and re-close. Rebuilds from the raw
    matrix facts; environments are small (clause-local variables), so
    this stays cheap and is only taken on [Imp] goals. *)
let assume (e : t) (h : Term.t) : t =
  if e.bot then e
  else
    try
      let atoms = collect [] h in
      if atoms = [] then e
      else begin
        (* re-express the existing closed matrix as atoms and rebuild *)
        let existing = ref [] in
        let names = Array.make (Array.length e.m) "" in
        SMap.iter (fun x i -> names.(i) <- x) e.idx;
        Array.iteri
          (fun i row ->
            Array.iteri
              (fun j c ->
                if c <> inf && i <> j then
                    let l =
                      match (i, j) with
                      | 0, j ->
                          Lia.lin_add
                            (Lia.lin_scale (-1) (Lia.lin_var names.(j)))
                            (Lia.lin_const (-c))
                      | i, 0 ->
                          Lia.lin_add (Lia.lin_var names.(i))
                            (Lia.lin_const (-c))
                      | i, j ->
                          Lia.lin_add
                            (Lia.lin_sub (Lia.lin_var names.(i))
                               (Lia.lin_var names.(j)))
                            (Lia.lin_const (-c))
                    in
                    existing := l :: !existing)
              row)
          e.m;
        of_atoms (atoms @ !existing)
      end
    with Contradiction -> bot

(* ------------------------------------------------------------------ *)
(* Bounding linear forms                                               *)
(* ------------------------------------------------------------------ *)

(* Upper bound of a variable / its negation, as DBM edges. *)
let var_hi e x =
  match SMap.find_opt x e.idx with None -> inf | Some i -> e.m.(i).(0)

let var_neg_hi e x =
  match SMap.find_opt x e.idx with None -> inf | Some i -> e.m.(0).(i)

(** A sound upper bound of [lin] under the environment, or [inf]. Uses
    the pairwise difference edge when the form is exactly [x − y + k];
    otherwise sums per-variable interval bounds. *)
let upper_bound (e : t) (l : Lia.lin) : int =
  if e.bot then min_int
  else
    let bindings = SMap.bindings l.Lia.coeffs in
    let pairwise =
      match bindings with
      | [ (x, 1); (y, -1) ] | [ (y, -1); (x, 1) ] -> (
          match (SMap.find_opt x e.idx, SMap.find_opt y e.idx) with
          | Some i, Some j -> w_add e.m.(i).(j) l.Lia.const
          | _ -> inf)
      | _ -> inf
    in
    let interval =
      List.fold_left
        (fun acc (x, c) ->
          let term_bound =
            if c > 0 then
              let h = var_hi e x in
              if h = inf then inf else clamp (c * h)
            else
              (* c < 0: c·x ≤ (−c)·(−x) ≤ (−c)·ub(−x) *)
              let h = var_neg_hi e x in
              if h = inf then inf else clamp (-c * h)
          in
          w_add acc term_bound)
        l.Lia.const bindings
    in
    w_min pairwise interval

let lower_bound (e : t) (l : Lia.lin) : int option =
  let b = upper_bound e (Lia.lin_scale (-1) l) in
  if b = inf then None else Some (-b)

(* ------------------------------------------------------------------ *)
(* Entailment                                                          *)
(* ------------------------------------------------------------------ *)

(** [entails e goal]: do the hypotheses definitely imply [goal]? A
    [false] answer means "unknown" — the clause falls through to the
    solver. Every [true] answer is a Fourier–Motzkin consequence of
    the collected hypotheses (see the module header). *)
let rec entails (e : t) (goal : Term.t) : bool =
  e.bot
  ||
  match goal with
  | Term.Bool b -> b
  | Term.And ts -> List.for_all (entails e) ts
  | Term.Or ts -> List.exists (entails e) ts
  | Term.Imp (a, b) -> entails (assume e a) b
  | Term.Ite (c, a, b) -> entails (assume e c) a && entails (assume e (Term.mk_not c)) b
  | Term.Not inner -> (
      match Term.mk_not inner with
      | Term.Not _ -> false
      | g -> entails e g)
  | Term.Cmp (op, a, b) -> (
      try
        let d = Lia.lin_sub (lin_of_term a) (lin_of_term b) in
        match op with
        | Term.Le -> w_le (upper_bound e d) 0
        | Term.Lt -> w_le (upper_bound e d) (-1)
        | Term.Ge -> w_le (upper_bound e (Lia.lin_scale (-1) d)) 0
        | Term.Gt -> w_le (upper_bound e (Lia.lin_scale (-1) d)) (-1)
      with Nonlinear -> false)
  | Term.Eq (a, b) -> (
      try
        let d = Lia.lin_sub (lin_of_term a) (lin_of_term b) in
        w_le (upper_bound e d) 0
        && w_le (upper_bound e (Lia.lin_scale (-1) d)) 0
      with Nonlinear -> false)
  | Term.Ne (a, b) -> (
      try
        let d = Lia.lin_sub (lin_of_term a) (lin_of_term b) in
        w_le (upper_bound e d) (-1)
        || w_le (upper_bound e (Lia.lin_scale (-1) d)) (-1)
      with Nonlinear -> false)
  | _ -> false
