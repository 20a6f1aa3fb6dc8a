(** Golden transcripts of [flux check --jobs 1 --no-cache
    --dump-solution] under the three absint modes (default,
    [--no-absint], [--absint-crosscheck]): stdout, exit code and stderr
    must match [test/golden/NAME.MODE.out] byte for byte, so a solver or
    fixpoint change that must keep verdicts, diagnostics and κ
    solutions identical is held to that here.

    Inputs: every [examples/programs/*.rs], and in [test/golden/] the
    Table-1 programs bsearch, dotprod and heapsort, the RMat library,
    and the off-by-one mutants of the three programs. Those seven
    sources must stay what the workload library builds, so that the
    transcripts keep describing the benchmark's inputs.

    After an intended change of output, regenerate the transcripts with
    [sh test/golden/regen.sh] from the root of the checkout (see its
    header) and review the diff. *)

module Workloads = Flux_workloads.Workloads

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let modes = [ ("default", ""); ("no-absint", "--no-absint");
              ("absint-crosscheck", "--absint-crosscheck") ]

(** What regen.sh writes for [input] under [flag]. *)
let transcript input flag =
  let out = Filename.temp_file "flux-golden" ".out" in
  let err = Filename.temp_file "flux-golden" ".err" in
  let code =
    Sys.command
      (Printf.sprintf
         "../bin/flux.exe check --jobs 1 --no-cache --dump-solution %s %s > \
          %s 2> %s"
         flag (Filename.quote input) (Filename.quote out) (Filename.quote err))
  in
  let s = read_file out ^ Printf.sprintf "[exit %d]\n" code ^ read_file err in
  Sys.remove out;
  Sys.remove err;
  s

let golden_case input =
  let name = Filename.remove_extension (Filename.basename input) in
  Alcotest.test_case name `Slow (fun () ->
      List.iter
        (fun (mode, flag) ->
          let path = Printf.sprintf "golden/%s.%s.out" name mode in
          if not (Sys.file_exists path) then
            Alcotest.failf "%s is missing: run sh test/golden/regen.sh" path;
          Alcotest.(check string)
            (Printf.sprintf "%s, %s" name mode)
            (read_file path) (transcript input flag))
        modes)

(** Empty only when run outside the test directory, which the first
    case reports. *)
let examples =
  (try Sys.readdir "../examples/programs" with Sys_error _ -> [||])
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rs")
  |> List.sort compare
  |> List.map (Filename.concat "../examples/programs")

(** The seven committed sources and how the workload library builds
    each; the mutations are those of [test_workloads.ml]. *)
let library_sources =
  let flux name = (Option.get (Workloads.find name)).Workloads.bm_flux in
  let mutant name from_s to_s =
    (name ^ "-mutant", Option.get (Str_replace.first (flux name) from_s to_s))
  in
  List.map (fun name -> (name, flux name)) [ "bsearch"; "dotprod"; "heapsort" ]
  @ [
      ("rmat", Workloads.rmat_flux);
      mutant "bsearch" "while lo < hi" "while lo <= hi";
      mutant "dotprod" "i < x.len()" "i <= x.len()";
      mutant "heapsort" "let mut end = len - 1;" "let mut end = len;";
    ]

let inputs_match_library () =
  Alcotest.(check bool) "examples/programs found" true (examples <> []);
  List.iter
    (fun (name, src) ->
      Alcotest.(check string)
        (Printf.sprintf "golden/%s.rs is the library's source" name)
        src
        (read_file (Printf.sprintf "golden/%s.rs" name)))
    library_sources

let tests =
  ( "golden",
    Alcotest.test_case "committed inputs match the workload library" `Quick
      inputs_match_library
    :: List.map golden_case
         (examples
         @ List.map (fun (name, _) -> "golden/" ^ name ^ ".rs") library_sources)
  )
