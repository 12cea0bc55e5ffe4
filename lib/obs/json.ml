(* Minimal JSON: an AST, a printer, and a parser.

   The telemetry exporter and the bench --json path need exactly this
   much — no external dependency is warranted. Numbers are floats (JSON
   has one number type); integral values print without a fractional part
   so counters stay readable. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_num buf x =
  (* JSON has no NaN/Infinity literals; emit null rather than a token no
     parser accepts (empty-summary percentiles are NaN, for one). *)
  if Float.is_nan x || Float.abs x = Float.infinity then Buffer.add_string buf "null"
  else if Float.is_integer x |> not || Float.abs x >= 1e15 then
    (* %.12g survives a round-trip for every float we emit. *)
    Buffer.add_string buf (Printf.sprintf "%.12g" x)
  else Buffer.add_string buf (Printf.sprintf "%.0f" x)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> add_num buf x
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

(* Pretty printer with two-space indentation, for human-inspected bench
   output files. *)
let rec write_pretty buf indent = function
  | (Null | Bool _ | Num _ | Str _) as v -> write buf v
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      let pad = String.make ((indent + 1) * 2) ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          write_pretty buf (indent + 1) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (indent * 2) ' ');
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      let pad = String.make ((indent + 1) * 2) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\": ";
          write_pretty buf (indent + 1) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (indent * 2) ' ');
      Buffer.add_char buf '}'

let to_string_pretty t =
  let buf = Buffer.create 1024 in
  write_pretty buf 0 t;
  Buffer.contents buf

exception Parse_error of string

let parse s =
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let n = String.length word in
    if !pos + n <= len && String.sub s !pos n = word then begin
      pos := !pos + n;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if !pos >= len then fail "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' | '\\' | '/' ->
                Buffer.add_char buf e;
                go ()
            | 'n' ->
                Buffer.add_char buf '\n';
                go ()
            | 'r' ->
                Buffer.add_char buf '\r';
                go ()
            | 't' ->
                Buffer.add_char buf '\t';
                go ()
            | 'b' ->
                Buffer.add_char buf '\b';
                go ()
            | 'f' ->
                Buffer.add_char buf '\012';
                go ()
            | 'u' ->
                if !pos + 4 > len then fail "short \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
                in
                (* UTF-8 encode the code point (BMP only — enough for the
                   escapes we ourselves emit, which are all < 0x20). *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end;
                go ()
            | _ -> fail "bad escape")
        | c ->
            Buffer.add_char buf c;
            go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < len && is_num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> x
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing input";
  v

let parse_opt s = try Some (parse s) with Parse_error _ -> None

(* Accessors used by the exporters and tests. *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let num = function Num x -> Some x | _ -> None
