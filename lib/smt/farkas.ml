(** Certifying mirror of {!Lia}.

    [refute] re-runs the Fourier–Motzkin/equality-elimination pipeline
    of {!Lia.sat_literals} over a conjunction of theory literals, but
    with provenance: every derived row remembers the nonnegative
    combination of hypotheses that produced it, so an infeasibility
    verdict comes out as a {!Proof.trefut} — a derivation of a positive
    constant row [k ≤ 0] — that the independent replay checker can
    re-add without trusting any code here.

    [model_literals] runs the same elimination in reverse: it records
    each eliminated variable's bounding rows and each equality
    substitution, then back-substitutes to a concrete integer
    assignment. The result is verified against every input literal
    before it is returned, so callers can treat [Some m] as definite.

    Both directions may give up ([None]): rational shadows, elimination
    limits and integer gaps lose no soundness, only completeness — the
    same polarity as {!Lia} itself. *)

module SMap = Lia.SMap

let fm_limit = 20_000
let diseq_depth = 12
let refute_budget = 400

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(** Floor division (OCaml's [/] truncates). *)
let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

(** Ceiling division. *)
let cdiv a b = -fdiv (-a) b

let coeff x (l : Lia.lin) =
  match SMap.find_opt x l.Lia.coeffs with Some c -> c | None -> 0

(** [d ≤ -1] as a [≤ 0] row. *)
let le_neg1 (d : Lia.lin) = { d with Lia.const = d.Lia.const + 1 }

(** [d ≥ 1] as a [≤ 0] row. *)
let ge_1 (d : Lia.lin) =
  let m = Lia.lin_scale (-1) d in
  { m with Lia.const = m.Lia.const + 1 }

(** Integer tightening of a non-constant row: divide the coefficients
    by their gcd and round the constant up (exactly {!Lia}'s
    transform; replay recomputes it independently). *)
let tighten_lin (l : Lia.lin) : Lia.lin =
  let g = SMap.fold (fun _ c g -> gcd c g) l.Lia.coeffs 0 in
  if g <= 1 then l
  else
    {
      Lia.coeffs = SMap.map (fun c -> c / g) l.Lia.coeffs;
      const = -fdiv (-l.Lia.const) g;
    }

(** Pick the elimination variable minimizing the pos × neg occurrence
    product (the classic FM pivot heuristic, as in {!Lia}). Ties go by
    the fold order of an unseeded table, so a certificate does not
    depend on [OCAMLRUNPARAM=R]. *)
let choose_var (cs : Lia.lin list) : string option =
  let tbl : (string, int * int) Hashtbl.t = Hashtbl.create ~random:false 16 in
  List.iter
    (fun (l : Lia.lin) ->
      SMap.iter
        (fun x c ->
          let p, n = try Hashtbl.find tbl x with Not_found -> (0, 0) in
          Hashtbl.replace tbl x (if c > 0 then (p + 1, n) else (p, n + 1)))
        l.Lia.coeffs)
    cs;
  Hashtbl.fold
    (fun x (p, n) best ->
      let cost = p * n in
      match best with
      | Some (_, bcost) when bcost <= cost -> best
      | _ -> Some (x, cost))
    tbl None
  |> Option.map fst

(** First variable with a unit coefficient, and the rest of the row
    solved for it: [e = 0] with [e = c·x + r], [c = ±1] gives
    [x = -c·r]. *)
let solvable_eq (e : Lia.lin) : (string * Lia.lin) option =
  SMap.fold
    (fun x c acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if abs c = 1 then
            Some
              ( x,
                Lia.lin_scale (-c)
                  { e with Lia.coeffs = SMap.remove x e.Lia.coeffs } )
          else None)
    e.Lia.coeffs None

(* ------------------------------------------------------------------ *)
(* Certifying refutation                                               *)
(* ------------------------------------------------------------------ *)

type buf = { mutable steps : Proof.step list (* reversed *); mutable n : int }

let emit (b : buf) (s : Proof.step) : Proof.src =
  b.steps <- s :: b.steps;
  let i = b.n in
  b.n <- b.n + 1;
  Proof.Step i

(** Raised when a derived row is a positive constant; carries the
    source deriving it. *)
exception Contra of Proof.src

(** Inequality rows with provenance; equalities carry both
    directions' sources ([e ≤ 0] and [-e ≤ 0]). *)
type row = Lia.lin * Proof.src
type eqrow = Lia.lin * Proof.src * Proof.src

(** Eliminate equalities by unit-coefficient substitution, mirroring
    the sequential Phase 1 that [test/test_smt.ml] keeps as the
    reference for {!Lia.elim_eqs} (one substitution at a time, so each
    substituted row gets its proof step): substituting [x := rhs] from
    [e] into a row
    [a] is the combination [a + m·e] with [m = -coeff(x,a)·c], split by
    sign of [m] over the two directions of [e] so multipliers stay
    nonnegative. *)
let elim_eqs (b : buf) (eqs : eqrow list) (ineqs : row list) : row list =
  let subst_row e sp sn x c ((a, sa) : row) : row =
    let k = coeff x a in
    if k = 0 then (a, sa)
    else
      let m = -k * c in
      let a' = Lia.lin_add a (Lia.lin_scale m e) in
      let s =
        if m > 0 then emit b (Proof.Comb [ (1, sa); (m, sp) ])
        else emit b (Proof.Comb [ (1, sa); (-m, sn) ])
      in
      (a', s)
  in
  let rec go eqs ineqs =
    match eqs with
    | [] -> ineqs
    | ((e, sp, sn) : eqrow) :: rest ->
        if Lia.lin_is_const e then
          if e.Lia.const = 0 then go rest ineqs
          else if e.Lia.const > 0 then raise (Contra sp)
          else raise (Contra sn)
        else (
          match solvable_eq e with
          | Some (x, _) ->
              let c = coeff x e in
              let subst_eq ((e2, p2, n2) : eqrow) : eqrow =
                let k = coeff x e2 in
                if k = 0 then (e2, p2, n2)
                else
                  let m = -k * c in
                  let e2' = Lia.lin_add e2 (Lia.lin_scale m e) in
                  let p', n' =
                    if m > 0 then
                      ( emit b (Proof.Comb [ (1, p2); (m, sp) ]),
                        emit b (Proof.Comb [ (1, n2); (m, sn) ]) )
                    else
                      ( emit b (Proof.Comb [ (1, p2); (-m, sn) ]),
                        emit b (Proof.Comb [ (1, n2); (-m, sp) ]) )
                  in
                  (e2', p', n')
              in
              go (List.map subst_eq rest)
                (List.map (subst_row e sp sn x c) ineqs)
          | None ->
              (* no unit coefficient: a gcd that misses the constant is
                 an integer infeasibility — certify it by tightening
                 both directions and adding them (the constants round
                 toward each other, leaving [1 ≤ 0]) *)
              let g = SMap.fold (fun _ c g -> gcd c g) e.Lia.coeffs 0 in
              if g > 1 && e.Lia.const mod g <> 0 then begin
                let t1 = emit b (Proof.Tight sp) in
                let t2 = emit b (Proof.Tight sn) in
                raise (Contra (emit b (Proof.Comb [ (1, t1); (1, t2) ])))
              end
              else
                go rest
                  ((e, sp) :: (Lia.lin_scale (-1) e, sn) :: ineqs))
  in
  go eqs ineqs

(** Fourier–Motzkin with provenance. Returns normally when it cannot
    refute (feasible or gave up); raises [Contra] on success. *)
let rec fm (b : buf) (cs : row list) : unit =
  let cs =
    List.filter_map
      (fun ((l, s) : row) ->
        if Lia.lin_is_const l then
          if l.Lia.const > 0 then raise (Contra s) else None
        else
          let l' = tighten_lin l in
          if l' == l then Some (l, s)
          else Some (l', emit b (Proof.Tight s)))
      cs
  in
  if List.length cs > fm_limit then ()
  else
    match choose_var (List.map fst cs) with
    | None -> ()
    | Some x ->
        let pos, rest =
          List.partition (fun ((l, _) : row) -> coeff x l > 0) cs
        in
        let neg, rest =
          List.partition (fun ((l, _) : row) -> coeff x l < 0) rest
        in
        let combined =
          List.concat_map
            (fun ((cp, sp) : row) ->
              let a = coeff x cp in
              List.map
                (fun ((cn, sn) : row) ->
                  let bcoef = -coeff x cn in
                  let l =
                    Lia.lin_add (Lia.lin_scale bcoef cp) (Lia.lin_scale a cn)
                  in
                  (l, emit b (Proof.Comb [ (bcoef, sp); (a, sn) ])))
                neg)
            pos
        in
        fm b (combined @ rest)

let srcs_of_step = function
  | Proof.Comb ks -> List.map snd ks
  | Proof.Tight s -> [ s ]

let map_step f = function
  | Proof.Comb ks -> Proof.Comb (List.map (fun (k, s) -> (k, f s)) ks)
  | Proof.Tight s -> Proof.Tight (f s)

(** Drop steps unreachable from the final one and renumber. *)
let gc_steps (steps : Proof.step list) : Proof.step list =
  let arr = Array.of_list steps in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let keep = Array.make n false in
    let rec mark i =
      if i >= 0 && i < n && not keep.(i) then begin
        keep.(i) <- true;
        List.iter
          (function Proof.Step j -> mark j | _ -> ())
          (srcs_of_step arr.(i))
      end
    in
    mark (n - 1);
    let remap = Array.make n (-1) in
    let k = ref 0 in
    Array.iteri
      (fun i kept ->
        if kept then begin
          remap.(i) <- !k;
          incr k
        end)
      keep;
    let rename = function
      | Proof.Step j -> Proof.Step remap.(j)
      | s -> s
    in
    Array.to_list arr
    |> List.filteri (fun i _ -> keep.(i))
    |> List.map (map_step rename)
  end

(** One refutation attempt by pure elimination (no disequality
    splits). *)
let run_steps (eqs : eqrow list) (ineqs : row list) : Proof.step list option =
  let b = { steps = []; n = 0 } in
  match
    try
      fm b (elim_eqs b eqs ineqs);
      None
    with Contra s -> Some s
  with
  | None -> None
  | Some s ->
      ignore (emit b (Proof.Comb [ (1, s) ]));
      Some (gc_steps (List.rev b.steps))

(** Certify the infeasibility of the conjunction of [hyps], each given
    as (atom index, assigned polarity, literal). [None] means "could
    not certify" — never "feasible". *)
let refute (hyps : (int * bool * Lia.literal) list) : Proof.trefut option =
  let ineqs = ref [] and eqs = ref [] and diseqs = ref [] in
  List.iter
    (fun (i, pol, lit) ->
      match lit with
      | Lia.Le0 l -> ineqs := (l, Proof.Hyp (i, pol, 1)) :: !ineqs
      | Lia.Eq0 l ->
          eqs := (l, Proof.Hyp (i, pol, 1), Proof.Hyp (i, pol, -1)) :: !eqs
      | Lia.Ne0 l -> diseqs := (i, l) :: !diseqs)
    hyps;
  let ineqs = List.rev !ineqs and eqs = List.rev !eqs in
  (* a constant disequality [0 ≠ 0] refutes on its own: both split
     branches are positive constant rows *)
  match
    List.find_opt
      (fun (_, d) -> Lia.lin_is_const d && d.Lia.const = 0)
      (List.rev !diseqs)
  with
  | Some (i, _) ->
      Some
        (Proof.Dsplit
           ( i,
             Proof.Steps [ Proof.Comb [ (1, Proof.Dle i) ] ],
             Proof.Steps [ Proof.Comb [ (1, Proof.Dge i) ] ] ))
  | None ->
      let diseqs =
        List.filter (fun (_, d) -> not (Lia.lin_is_const d)) (List.rev !diseqs)
      in
      let budget = ref refute_budget in
      let rec go eqs ineqs diseqs depth : Proof.trefut option =
        if !budget <= 0 then None
        else begin
          decr budget;
          match run_steps eqs ineqs with
          | Some steps -> Some (Proof.Steps steps)
          | None ->
              if depth >= diseq_depth then None
              else
                (* splitting on a disequality whose equality is already
                   inconsistent adds nothing (its negation is implied),
                   so restrict to critical ones — mirroring {!Lia}'s
                   pre-filter *)
                let eq_lins = List.map (fun ((e, _, _) : eqrow) -> e) eqs in
                let ineq_lins = List.map fst ineqs in
                let critical =
                  List.filter
                    (fun (_, d) ->
                      Lia.feasible ~eqs:(d :: eq_lins) ~ineqs:ineq_lins)
                    diseqs
                in
                let rec try_each seen = function
                  | [] -> None
                  | (i, d) :: rest -> (
                      let others = List.rev_append seen rest in
                      let attempt branch =
                        go eqs (branch :: ineqs) others (depth + 1)
                      in
                      match attempt (le_neg1 d, Proof.Dle i) with
                      | None -> try_each ((i, d) :: seen) rest
                      | Some lt -> (
                          match attempt (ge_1 d, Proof.Dge i) with
                          | None -> try_each ((i, d) :: seen) rest
                          | Some rt -> Some (Proof.Dsplit (i, lt, rt))))
                in
                try_each [] critical
        end
      in
      go eqs ineqs diseqs 0

(* ------------------------------------------------------------------ *)
(* Model extraction                                                    *)
(* ------------------------------------------------------------------ *)

exception Gap

(** Find an integer assignment satisfying every literal, or [None].
    The construction records the elimination order and back-substitutes
    bounds; the candidate is verified against all input literals before
    being returned, so [Some m] is definite. *)
let model_literals (lits : Lia.literal list) : (string * int) list option =
  let eqs = ref [] and ineqs = ref [] and diseqs = ref [] in
  (try
     List.iter
       (fun lit ->
         match lit with
         | Lia.Le0 l ->
             if Lia.lin_is_const l then (if l.Lia.const > 0 then raise Gap)
             else ineqs := l :: !ineqs
         | Lia.Eq0 l ->
             if Lia.lin_is_const l then (if l.Lia.const <> 0 then raise Gap)
             else eqs := l :: !eqs
         | Lia.Ne0 l ->
             if Lia.lin_is_const l then (if l.Lia.const = 0 then raise Gap)
             else diseqs := l :: !diseqs)
       lits
   with Gap ->
     eqs := [];
     ineqs := [];
     diseqs := [ Lia.lin_const 0 ] (* poison: forces None below *));
  let eqs = List.rev !eqs and ineqs = List.rev !ineqs in
  let diseqs = List.rev !diseqs in
  if List.exists Lia.lin_is_const diseqs then None
  else
    let solve (ineqs : Lia.lin list) : (string * int) list option =
      try
        (* 1. equality elimination, recording substitutions *)
        let substs = ref [] in
        let rec elim eqs ineqs =
          match eqs with
          | [] -> ineqs
          | e :: rest ->
              if Lia.lin_is_const e then
                if e.Lia.const = 0 then elim rest ineqs else raise Gap
              else (
                match solvable_eq e with
                | Some (x, rhs) ->
                    let sub (a : Lia.lin) =
                      let k = coeff x a in
                      if k = 0 then a
                      else
                        Lia.lin_add
                          { a with Lia.coeffs = SMap.remove x a.Lia.coeffs }
                          (Lia.lin_scale k rhs)
                    in
                    substs := (x, rhs) :: !substs;
                    elim (List.map sub rest) (List.map sub ineqs)
                | None ->
                    let g = SMap.fold (fun _ c g -> gcd c g) e.Lia.coeffs 0 in
                    if g > 1 && e.Lia.const mod g <> 0 then raise Gap
                    else elim rest (e :: Lia.lin_scale (-1) e :: ineqs))
        in
        let ineqs = elim eqs ineqs in
        (* 2. FM elimination, recording each variable's bounding rows *)
        let elims = ref [] in
        let rec fmrec cs =
          let cs =
            List.filter_map
              (fun l ->
                if Lia.lin_is_const l then
                  if l.Lia.const > 0 then raise Gap else None
                else Some (tighten_lin l))
              cs
          in
          if List.length cs > fm_limit then raise Gap
          else
            match choose_var cs with
            | None -> ()
            | Some x ->
                let withx, rest =
                  List.partition (fun l -> coeff x l <> 0) cs
                in
                let pos = List.filter (fun l -> coeff x l > 0) withx in
                let neg = List.filter (fun l -> coeff x l < 0) withx in
                let combined =
                  List.concat_map
                    (fun cp ->
                      let a = coeff x cp in
                      List.map
                        (fun cn ->
                          Lia.lin_add
                            (Lia.lin_scale (-coeff x cn) cp)
                            (Lia.lin_scale a cn))
                        neg)
                    pos
                in
                elims := (x, withx) :: !elims;
                fmrec (combined @ rest)
        in
        fmrec ineqs;
        (* 3. back-substitute: !elims has the last-eliminated variable
           first, whose rows only mention variables eliminated later —
           i.e. already assigned by the time we reach it *)
        let env : (string, int) Hashtbl.t = Hashtbl.create 16 in
        let value x =
          match Hashtbl.find_opt env x with
          | Some v -> v
          | None ->
              Hashtbl.replace env x 0;
              0
        in
        let eval_without x (l : Lia.lin) =
          SMap.fold
            (fun y c acc -> if y = x then acc else acc + (c * value y))
            l.Lia.coeffs l.Lia.const
        in
        List.iter
          (fun (x, rows) ->
            let lo = ref min_int and hi = ref max_int in
            List.iter
              (fun r ->
                let a = coeff x r in
                let rest = eval_without x r in
                if a > 0 then hi := min !hi (fdiv (-rest) a)
                else lo := max !lo (cdiv rest (-a)))
              rows;
            if !lo > !hi then raise Gap;
            let v = if !lo > 0 then !lo else if !hi < 0 then !hi else 0 in
            Hashtbl.replace env x v)
          !elims;
        (* 4. equality substitutions, most recent first *)
        List.iter
          (fun (x, rhs) ->
            let v =
              SMap.fold
                (fun y c acc -> acc + (c * value y))
                rhs.Lia.coeffs rhs.Lia.const
            in
            Hashtbl.replace env x v)
          !substs;
        (* 5. verify every input literal *)
        let lin_val (l : Lia.lin) =
          SMap.fold
            (fun y c acc -> acc + (c * value y))
            l.Lia.coeffs l.Lia.const
        in
        let ok =
          List.for_all
            (function
              | Lia.Le0 l -> lin_val l <= 0
              | Lia.Eq0 l -> lin_val l = 0
              | Lia.Ne0 l -> lin_val l <> 0)
            lits
        in
        if ok then Some (Hashtbl.fold (fun x v acc -> (x, v) :: acc) env [])
        else None
      with Gap -> None
    in
    (* place each disequality on a feasible side, backtracking through
       the integer solve *)
    let rec place ineqs = function
      | [] -> solve ineqs
      | d :: rest ->
          let attempt branch =
            if Lia.feasible ~eqs ~ineqs:(branch :: ineqs) then
              place (branch :: ineqs) rest
            else None
          in
          (match attempt (le_neg1 d) with
          | Some m -> Some m
          | None -> attempt (ge_1 d))
    in
    place ineqs diseqs
