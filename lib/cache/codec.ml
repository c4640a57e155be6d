(* A codec writes a value's atoms in front of the atoms that follow it
   and reads it back off a cursor over the payload's tokens. [in_list]
   is true inside a list element, where ',' and ':' are separators too. *)
type 'a t = {
  enc : bool -> 'a -> string list -> string list;
  dec : bool -> string list ref -> 'a;
}

(* a token count that does not match the codec: decode says None *)
exception Mismatch

let reserved s = s = "" || s = "-" || s = "."

let take r =
  match !r with
  | s :: rest ->
      r := rest;
      s
  | [] -> raise Mismatch

(* read exactly [toks] *)
let all c in_list toks =
  let r = ref toks in
  let v = c.dec in_list r in
  if !r <> [] then raise Mismatch;
  v

(* [show] must never produce a reserved atom or a separator (numbers
   and booleans cannot); [parse] raises on a malformed atom *)
let atom show parse =
  let dec _ r =
    let s = take r in
    if reserved s then failwith ("Cache.Codec: unexpected " ^ s);
    parse s
  in
  { enc = (fun _ v rest -> show v :: rest); dec }

let int = atom string_of_int int_of_string
let bool = atom string_of_bool bool_of_string
let float = atom (Printf.sprintf "%h") float_of_string

let string =
  let enc in_list s rest =
    if
      reserved s || String.contains s ' '
      || (in_list && (String.contains s ',' || String.contains s ':'))
    then invalid_arg (Printf.sprintf "Cache.Codec.string: %S" s);
    s :: rest
  in
  { (atom Fun.id Fun.id) with enc }

let bits =
  let enc in_list b rest =
    let n = Array.length b in
    if n > 0 then String.init n (fun i -> if b.(i) then '1' else '0') :: rest
    else if in_list then invalid_arg "Cache.Codec.bits: empty inside a list"
    else "." :: rest
  in
  let dec _ r =
    match take r with
    | "." -> [||]
    | s ->
        if s = "" || not (String.for_all (fun c -> c = '0' || c = '1') s) then
          failwith ("Cache.Codec.bits: " ^ s);
        Array.init (String.length s) (fun i -> s.[i] = '1')
  in
  { enc; dec }

let option c =
  let enc in_list v rest =
    match v with None -> "-" :: rest | Some v -> c.enc in_list v rest
  in
  let dec in_list r =
    match !r with
    | "-" :: rest ->
        r := rest;
        None
    | _ -> Some (c.dec in_list r)
  in
  { enc; dec }

let list c =
  let flat in_list =
    if in_list then invalid_arg "Cache.Codec.list: a list inside a list"
  in
  let enc in_list l rest =
    flat in_list;
    match l with
    | [] -> "." :: rest
    | l ->
        let elt x = String.concat ":" (c.enc true x []) in
        String.concat "," (List.map elt l) :: rest
  in
  let dec in_list r =
    flat in_list;
    match take r with
    | "." -> []
    | tok ->
        let elt e = all c true (String.split_on_char ':' e) in
        List.map elt (String.split_on_char ',' tok)
  in
  { enc; dec }

let conv f g c =
  let enc in_list v rest = c.enc in_list (f v) rest in
  { enc; dec = (fun in_list r -> g (c.dec in_list r)) }

let array c = conv Array.to_list Array.of_list (list c)

let pair a b =
  let dec in_list r =
    let x = a.dec in_list r in
    (x, b.dec in_list r)
  in
  let enc in_list (x, y) rest = a.enc in_list x (b.enc in_list y rest) in
  { enc; dec }

let triple a b c =
  let flat (x, (y, z)) = (x, y, z) in
  conv (fun (x, y, z) -> (x, (y, z))) flat (pair a (pair b c))

let encode c v = String.concat " " (c.enc false v [])

let decode c s =
  match all c false (String.split_on_char ' ' s) with
  | v -> Some v
  | exception Mismatch -> None
