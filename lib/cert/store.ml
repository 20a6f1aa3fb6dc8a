(** Certificate files: one text file of [(cert <tag> <proof>)] lines
    per verified function, stored next to the verdict entry in the
    on-disk cache under the same content key ([<key>.cert] beside
    [<key>.entry]). Because the key hashes the function's source and
    environment, a certificate can never be replayed against the wrong
    code. Plain s-expression text — not [Marshal] — so certificates
    survive compiler upgrades and can be inspected (and tampered with,
    in the meta-tests) with a text editor. *)

open Flux_smt

let path (dir : string) (key : string) : string =
  Filename.concat dir (key ^ ".cert")

(* Numbers the temp files of this process's writers. *)
let writes = Atomic.make 0

(** Atomic write (temp file + rename); never raises — certificate
    emission is an optimization, losing one is only a future cache
    demotion. The temp file is the writer's own, not the process's:
    fluxd sessions and [--jobs] workers are domains of one process, and
    two of them saving one key through one temp path could rename the
    other's half-written file into place. *)
let save (dir : string) (key : string) (entries : (int * Proof.t) list) :
    unit =
  let file = path dir key in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" file (Unix.getpid ())
      (Atomic.fetch_and_add writes 1)
  in
  match open_out_bin tmp with
  | exception Sys_error _ -> ()
  | oc ->
      let written =
        try
          output_string oc (Proof.cert_to_string entries);
          close_out oc;
          true
        with Sys_error _ ->
          close_out_noerr oc;
          false
      in
      if written then (try Sys.rename tmp file with Sys_error _ -> ())
      else try Sys.remove tmp with Sys_error _ -> ()

type loaded =
  | Missing  (** no certificate file (plain cache miss) *)
  | Corrupt  (** present but unparseable: counts as a replay failure *)
  | Loaded of (int * Proof.t) list

let load (dir : string) (key : string) : loaded =
  let file = path dir key in
  match open_in_bin file with
  | exception Sys_error _ -> Missing
  | ic -> (
      let src =
        try
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          Some s
        with Sys_error _ | End_of_file ->
          close_in_noerr ic;
          None
      in
      match src with
      | None -> Corrupt
      | Some src -> (
          match Proof.cert_of_string src with
          | entries -> Loaded entries
          | exception
              ( Proof.Parse_error _ | Failure _ | Invalid_argument _
              | Term.Ill_sorted _ ) ->
              Corrupt))

let remove (dir : string) (key : string) : unit =
  try Sys.remove (path dir key) with Sys_error _ -> ()
