(** The benchmark's inputs and their known answers.

    Every input is a Rust-subset source with the verdict it must get.
    The answers come from the paper and the test suite, never from the
    checker under test: Table-1 programs verify, seeded off-by-one
    mutants fail. The seed only orders the inputs; the sets are fixed,
    so each workload does the same work under every seed. *)

module Workloads = Flux_workloads.Workloads
module Extra = Flux_workloads.Wl_extra

type expect = Verifies | Fails

type t = { name : string; src : string; expect : expect }

let table1_src name = (Option.get (Workloads.find name)).Workloads.bm_flux

(** Replace the first occurrence of [from_s] in [s]. *)
let replace_first s from_s to_s =
  let n = String.length s and m = String.length from_s in
  let rec find i =
    if i + m > n then invalid_arg ("Inputs.replace_first: " ^ from_s)
    else if String.sub s i m = from_s then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ to_s ^ String.sub s (i + m) (n - i - m)

(** The Table-1 Flux programs that verify in under ~1 s each. fft, kmp,
    kmeans (5-6 s) and simplex (~17 s) do not fit a run of this
    benchmark; they stay with [bench/main.exe table1]. *)
let table1 () =
  List.map
    (fun name -> { name; src = table1_src name; expect = Verifies })
    [ "bsearch"; "dotprod"; "heapsort" ]
  @ [ { name = "rmat"; src = Workloads.rmat_flux; expect = Verifies } ]

(** Off-by-one mutants, copied from the [flux_catches] cases in
    test/test_workloads.ml. The kmp, kmeans, fft and simplex mutants
    take 5-17 s each and exercise the same failing path, so they are
    left out. *)
let mutants () =
  List.map
    (fun (name, from_s, to_s) ->
      {
        name = name ^ "-mutant";
        src = replace_first (table1_src name) from_s to_s;
        expect = Fails;
      })
    [
      ("bsearch", "while lo < hi", "while lo <= hi");
      ("dotprod", "i < x.len()", "i <= x.len()");
      ("heapsort", "let mut end = len - 1;", "let mut end = len;");
    ]

(** What the daemon workloads prime fluxd with and then re-read warm:
    every input that verifies cold in under ~1 s. *)
let primed () =
  List.map
    (fun (e : Extra.extra) ->
      { name = e.Extra.ex_name; src = e.Extra.ex_src; expect = Verifies })
    Extra.all
  @ table1 ()
  @ [
      {
        name = "init_zeros";
        src = Flux_engine.Diag.read_file "examples/programs/init_zeros.rs";
        expect = Verifies;
      };
    ]

(** Fisher-Yates shuffle driven by [rng]. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a
