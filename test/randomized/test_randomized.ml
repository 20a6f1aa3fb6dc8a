(** Fourier–Motzkin's decisions do not depend on hash-table seeds.

    [choose_var] breaks cost ties in the order an unseeded [Hashtbl]
    would fold over the variables. With randomized tables
    ([OCAMLRUNPARAM=R], or [Hashtbl.randomize]) that order must not
    change: this process randomizes every table it creates, then checks
    the FM counters of heapsort (a Table-1 program whose counters a
    randomized tie-break moves) and of tie-heavy systems against their
    values in an unrandomized process. *)

let () = Hashtbl.randomize ()

module Lia = Flux_smt.Lia
module Profile = Flux_smt.Profile
module Engine = Flux_engine.Engine
module Workloads = Flux_workloads.Workloads

(** [lia.fm_rows] and [lia.fm_row_copies] of [f ()]. *)
let fm_counts f =
  let r0 = Profile.count "lia.fm_rows" and c0 = Profile.count "lia.fm_row_copies" in
  f ();
  (Profile.count "lia.fm_rows" - r0, Profile.count "lia.fm_row_copies" - c0)

let program name src (rows, copies) =
  Alcotest.test_case name `Quick (fun () ->
      Flux_smt.Term.reset_intern ();
      let got =
        fm_counts (fun () ->
            ignore (Engine.check_source { Engine.jobs = 1; cache_dir = None } src))
      in
      Alcotest.(check (pair int int))
        (name ^ ": lia.fm_rows, lia.fm_row_copies") (rows, copies) got)

let flux name = (Option.get (Workloads.find name)).Workloads.bm_flux

(** A system over [n] names drawn from [seed]: a chain [v(i) ≤ v(i+1)]
    over a shuffled order of the names, bounds on some names, and rows
    over two or three names, so that many names tie on cost. *)
let system n seed : Lia.lin list =
  let rng = Random.State.make [| seed |] in
  let names = Array.init n (Printf.sprintf "v%d") in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = names.(i) in
    names.(i) <- names.(j);
    names.(j) <- t
  done;
  let var i = Lia.lin_var names.(i) in
  let chain =
    List.init (n - 1) (fun i -> Lia.lin_sub (var i) (var (i + 1)))
  in
  let bound () =
    let i = Random.State.int rng n in
    Lia.lin_add (Lia.lin_scale (if Random.State.bool rng then 1 else -1) (var i))
      (Lia.lin_const (Random.State.int rng 5 - 2))
  in
  let pair () =
    let i = Random.State.int rng n and j = Random.State.int rng n in
    Lia.lin_add (Lia.lin_sub (var i) (Lia.lin_scale 2 (var j)))
      (Lia.lin_const (Random.State.int rng 3))
  in
  chain @ List.init (n / 2) (fun _ -> bound ()) @ List.init (n / 4) (fun _ -> pair ())

(** Systems by size and seed, with their verdict, [lia.fm_rows] and
    [lia.fm_row_copies] in an unrandomized process. With the tie-break
    read off a randomized table, most of these counts move from run to
    run. *)
let systems =
  [
    (20, 1, (false, 29, 29));
    (40, 2, (false, 67, 67));
    (70, 3, (false, 84, 84));
    (70, 4, (false, 103, 103));
    (40, 5, (false, 50, 51));
    (70, 6, (false, 125, 126));
  ]

let system_case (n, seed, want) =
  Alcotest.test_case (Printf.sprintf "%d names, seed %d" n seed) `Quick (fun () ->
      let rows = system n seed in
      let verdict = ref true in
      let r, c =
        fm_counts (fun () ->
            verdict := try Lia.fm rows with Lia.Infeasible -> false)
      in
      Alcotest.(check (triple bool int int)) "verdict, fm_rows, fm_row_copies"
        want (!verdict, r, c))

let () =
  Alcotest.run "flux-randomized"
    [
      ( "randomized hash tables",
        [
          program "heapsort" (flux "heapsort") (9122, 32612);
        ]
        @ List.map system_case systems );
    ]
