(** A small JSON library for the daemon protocol, the metrics report,
    the profile and lint reports, and the bench tables.

    The toolchain this repo builds against has no JSON package, and the
    protocol needs both directions, so this is a complete value type
    with a printer and a recursive-descent parser. Integers and floats are kept distinct: protocol fields are
    integers and must decode as such, while bench/metrics values are
    seconds and must survive a round trip — floats always print with a
    decimal point or exponent so they re-parse as [Float], and [%.17g]
    guarantees bit-exact round trips for finite values. Non-finite
    floats print as [null] (JSON has no inf/nan; this matches
    JavaScript's [JSON.stringify]), so they do {e not} round-trip —
    the lossy direction is deliberate and the only standard-conforming
    one.

    Unicode: strings are byte sequences passed through verbatim (the
    protocol ships file contents, which are not necessarily UTF-8);
    only the characters JSON requires escaping for are escaped. On
    input, [\uXXXX] escapes decode to UTF-8, including surrogate pairs
    for supplementary-plane characters; lone surrogates are rejected
    (our own encoder only emits [\u] for control characters). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string f =
  if not (Float.is_finite f) then
    (* JSON has no inf/nan tokens; [%.17g] would print them as bare
       words no parser accepts. [null] is the interoperable rendering
       (what e.g. JavaScript's JSON.stringify emits). *)
    "null"
  else if Float.is_integer f && Float.abs f < 1e16 then
    (* force a decimal point so the value re-parses as a float *)
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_string ?(pretty = false) (v : t) : string =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_to_string f)
    | String s -> escape_to buf s
    | List [] -> Buffer.add_string buf "[]"
    | List vs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then (Buffer.add_char buf '\n'; pad (depth + 1));
            go (depth + 1) v)
          vs;
        if pretty then (Buffer.add_char buf '\n'; pad depth);
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then (Buffer.add_char buf '\n'; pad (depth + 1));
            escape_to buf k;
            Buffer.add_string buf (if pretty then ": " else ":");
            go (depth + 1) v)
          kvs;
        if pretty then (Buffer.add_char buf '\n'; pad depth);
        Buffer.add_char buf '}'
  in
  go 0 v;
  if pretty then Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail ("expected " ^ word)
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit in \\u escape"
  in
  let parse_string () =
    expect '"';
    (* The raw span up to the closing quote bounds the decoded length
       (every escape decodes to fewer bytes than it is spelled with): a
       span without escapes is the string itself, any other sizes the
       buffer once. A protocol frame carries a whole source file in one
       string, which doubling a 16-byte buffer would copy about nine
       times. *)
    let rec span i escaped =
      if i >= n then (n, true)
      else
        match s.[i] with
        | '"' -> (i, escaped)
        | '\\' -> span (i + 2) true
        | _ -> span (i + 1) escaped
    in
    let stop, escaped = span !pos false in
    if not escaped then begin
      let v = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      v
    end
    else
    let buf = Buffer.create (max 16 (stop - !pos)) in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              let read_hex4 () =
                if !pos + 4 > n then fail "truncated \\u escape";
                let v =
                  (hex_digit s.[!pos] lsl 12)
                  lor (hex_digit s.[!pos + 1] lsl 8)
                  lor (hex_digit s.[!pos + 2] lsl 4)
                  lor hex_digit s.[!pos + 3]
                in
                pos := !pos + 4;
                v
              in
              let cp = read_hex4 () in
              let cp =
                if cp >= 0xd800 && cp <= 0xdbff then
                  (* high surrogate: JSON encodes supplementary-plane
                     characters as a \u pair; the low half must follow
                     immediately *)
                  if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                  then begin
                    pos := !pos + 2;
                    let lo = read_hex4 () in
                    if lo >= 0xdc00 && lo <= 0xdfff then
                      0x10000 + (((cp - 0xd800) lsl 10) lor (lo - 0xdc00))
                    else fail "high surrogate not followed by low surrogate"
                  end
                  else fail "lone high surrogate"
                else if cp >= 0xdc00 && cp <= 0xdfff then
                  fail "lone low surrogate"
                else cp
              in
              (* UTF-8 encode the code point *)
              if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
              else if cp < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
              end
              else if cp < 0x10000 then begin
                Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
                Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
                Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
                Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
                Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
              end
          | _ -> fail "unknown escape");
          go ())
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let rec digits () =
      match peek () with
      | Some '0' .. '9' -> advance (); digits ()
      | _ -> ()
    in
    digits ();
    (match peek () with
    | Some '.' -> is_float := true; advance (); digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if text = "" || text = "-" then fail "bad number"
    else if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* integer overflow: degrade to float *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let get_string = function String s -> Some s | _ -> None
let get_int = function Int i -> Some i | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
let get_list = function List vs -> Some vs | _ -> None

let get_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
