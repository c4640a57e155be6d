(* The JSON-lines record format: one writer and one flat-object reader
   for every record the simulator emits or reads back. See jsonl.mli. *)

type v =
  | I of int
  | F of float
  | S of string
  | B of bool
  | L of v list
  | Null
  | Raw of string

let schema_version = 2

type fields = (string * v) list

(* --- writer --- *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

(* The digits of [n <= 0], most significant first: counting down from 0
   reaches [min_int] too, which has no positive twin. *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int b i =
  if i < 0 then Buffer.add_char b '-';
  add_digits b (if i < 0 then i else -i)

let add_string b s =
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"'

(* [add] of each element, comma-separated *)
let add_seq b add l =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add b x)
    l

let rec add_value b = function
  | I i -> add_int b i
  | F f ->
      (* JSON has no inf/nan literals *)
      if Float.is_finite f then Printf.bprintf b "%.17g" f
      else Buffer.add_string b "null"
  | S s -> add_string b s
  | B v -> Buffer.add_string b (if v then "true" else "false")
  | L l ->
      Buffer.add_char b '[';
      add_seq b add_value l;
      Buffer.add_char b ']'
  | Null -> Buffer.add_string b "null"
  | Raw s -> Buffer.add_string b s

let add_field b (k, v) =
  add_string b k;
  Buffer.add_char b ':';
  add_value b v

let add_obj b fields =
  Buffer.add_char b '{';
  add_seq b add_field fields;
  Buffer.add_char b '}'

let obj fields =
  let b = Buffer.create 128 in
  add_obj b fields;
  Buffer.contents b

(* --- reader --- *)

exception Malformed

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let read line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let ws () =
    while
      !pos < n
      && match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false
    do
      incr pos
    done
  in
  let eat c =
    ws ();
    if peek () = Some c then incr pos else raise Malformed
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise Malformed
      | Some '"' -> incr pos
      | Some '\\' ->
          incr pos;
          (match peek () with
          | Some (('"' | '\\' | '/') as c) -> Buffer.add_char b c
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 'b' -> Buffer.add_char b '\b'
          | Some 'f' -> Buffer.add_char b '\012'
          | Some 'u' when !pos + 4 < n ->
              let hex = String.sub line (!pos + 1) 4 in
              if not (String.for_all is_hex hex) then raise Malformed;
              let u = int_of_string ("0x" ^ hex) in
              (* no surrogate pairs: the writer never produces them *)
              if not (Uchar.is_valid u) then raise Malformed;
              Buffer.add_utf_8_uchar b (Uchar.of_int u);
              pos := !pos + 4
          | _ -> raise Malformed);
          incr pos;
          go ()
      | Some c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let scalar () =
    let start = !pos in
    while
      !pos < n
      &&
      match line.[!pos] with
      | 'a' .. 'z' | 'A' .. 'Z' -> true
      | c -> is_number_char c
    do
      incr pos
    done;
    match String.sub line start (!pos - start) with
    | "true" -> B true
    | "false" -> B false
    | "null" -> Null
    | "-0" -> F (-0.) (* as an int it would lose its sign *)
    | tok when String.for_all is_number_char tok -> (
        match int_of_string_opt tok with
        | Some i -> I i
        | None -> (
            match float_of_string_opt tok with
            | Some f -> F f
            | None -> raise Malformed))
    | _ -> raise Malformed
  in
  (* after an opening bracket: [item] per element, up to [close] *)
  let seq close item =
    incr pos;
    ws ();
    if peek () = Some close then incr pos
    else
      let rec go () =
        item ();
        ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go ()
        | Some c when c = close -> incr pos
        | _ -> raise Malformed
      in
      go ()
  in
  let rec value () =
    ws ();
    match peek () with
    | Some '"' -> S (str ())
    | Some '[' -> nested ']' (fun () -> ignore (value ()))
    | Some '{' -> nested '}' (fun () -> ignore (member ()))
    | _ -> scalar ()
  and member () =
    let k = str () in
    eat ':';
    (k, value ())
  and nested close item =
    let start = !pos in
    seq close item;
    Raw (String.sub line start (!pos - start))
  in
  let acc = ref [] in
  match
    ws ();
    if peek () <> Some '{' then raise Malformed;
    seq '}' (fun () -> acc := member () :: !acc);
    ws ();
    !pos = n
  with
  | true -> Some (List.rev !acc)
  | false | (exception Malformed) -> None

let int fs k = match List.assoc_opt k fs with Some (I i) -> Some i | _ -> None

let float fs k =
  match List.assoc_opt k fs with
  | Some (F f) -> Some f
  | Some (I i) -> Some (float_of_int i)
  | _ -> None

let string fs k = match List.assoc_opt k fs with Some (S s) -> Some s | _ -> None
let bool fs k = match List.assoc_opt k fs with Some (B b) -> Some b | _ -> None
