(* Tests for the JSON-lines codec (lib/jsonl): the reader parses back what
   the writer emits — strings byte for byte, floats bit for bit — and
   reads flat fields past nested arrays and objects. *)

let qcheck ~name arb prop =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x15 |])
    (QCheck.Test.make ~name ~count:1000 arb prop)

(* Bytes the escaper and the reader must agree on: JSON syntax, escapes,
   control bytes and non-ASCII bytes, mixed with arbitrary ones. *)
let tricky_string =
  let open QCheck.Gen in
  let special =
    oneofl [ '"'; '\\'; ','; ':'; '}'; '{'; '['; ']'; '\n'; '\t'; '\000'; '\031' ]
  in
  let byte = frequency [ (3, special); (2, char_range '\128' '\255'); (5, char) ] in
  QCheck.make ~print:String.escaped (string_size ~gen:byte (0 -- 40))

let prop_string_roundtrip (k, s) =
  let fields = [ (k, Jsonl.S s); ("after", Jsonl.I 1) ] in
  Jsonl.read (Jsonl.obj fields) = Some fields

let bits f = Int64.bits_of_float f

let float_roundtrips f =
  match Jsonl.read (Jsonl.obj [ ("x", Jsonl.F f) ]) with
  | Some fs -> (
      match Jsonl.float fs "x" with Some g -> bits g = bits f | None -> false)
  | None -> false

let any_float =
  QCheck.(
    oneof
      [
        float;
        map Int64.float_of_bits int64;
        oneofl [ 0.; -0.; 0.1; 1e17; 1e-300; 5e-324; max_float; -3. ];
      ])

let prop_float_roundtrip f = (not (Float.is_finite f)) || float_roundtrips f

(* Ints where digit writers go wrong: the extremes ([min_int] has no
   positive twin), zero, and either side of every power of ten. *)
let any_int =
  let edges =
    List.concat_map
      (fun p -> [ p - 1; p; p + 1; -p - 1; -p; -p + 1 ])
      (List.init 19 (fun k -> int_of_float (10. ** float_of_int k)))
  in
  QCheck.(
    oneof [ int; oneofl ([ min_int; max_int; min_int + 1; 0; -1; 9; 10 ] @ edges) ])

let prop_int_bytes i =
  let line = Jsonl.obj [ ("x", Jsonl.I i) ] in
  line = {|{"x":|} ^ string_of_int i ^ "}"
  && Jsonl.read line = Some [ ("x", Jsonl.I i) ]

(* Every [v] constructor, nested, and every escape, in a key too. *)
let test_every_value_bytes () =
  Alcotest.(check string)
    "pinned bytes"
    {|{"a\"b\n":[1,[-2,null],{"r":[]},true],"s":"q\"\\\u0001\u001f\u0009é","f":0.10000000000000001,"g":-0,"n":null,"b":false}|}
    (Jsonl.obj
       Jsonl.
         [
           ("a\"b\n", L [ I 1; L [ I (-2); Null ]; Raw {|{"r":[]}|}; B true ]);
           ("s", S "q\"\\\001\031\té");
           ("f", F 0.1);
           ("g", F (-0.));
           ("n", Null);
           ("b", B false);
         ])

let test_non_finite_is_null () =
  List.iter
    (fun f ->
      let line = Jsonl.obj [ ("x", Jsonl.F f) ] in
      Alcotest.(check string) "written as null" {|{"x":null}|} line;
      match Jsonl.read line with
      | Some fs ->
          Alcotest.(check bool) "reads as Null" true
            (List.assoc_opt "x" fs = Some Jsonl.Null);
          Alcotest.(check (option (float 0.))) "no float" None
            (Jsonl.float fs "x")
      | None -> Alcotest.fail "null record unreadable")
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_field_after_nested () =
  (* a quarantine-shaped record: the tail's events contain the same keys
     and the bracket and quote characters the reader must skip over *)
  let line =
    {|{"kind":"quarantine","index":3,"trace":[{"ev":"send","round":9,"hint":null},{"kind":"x]}","index":[1,{"a":[]}]}],"elapsed_s":0.250,"label":"p/seed=1"}|}
  in
  match Jsonl.read line with
  | None -> Alcotest.fail "record unreadable"
  | Some fs ->
      Alcotest.(check (option string)) "kind" (Some "quarantine")
        (Jsonl.string fs "kind");
      Alcotest.(check (option int)) "index is the top-level one" (Some 3)
        (Jsonl.int fs "index");
      Alcotest.(check (option (float 0.))) "elapsed_s" (Some 0.25)
        (Jsonl.float fs "elapsed_s");
      Alcotest.(check (option string)) "label after the array"
        (Some "p/seed=1") (Jsonl.string fs "label");
      Alcotest.(check (list string)) "top-level keys only"
        [ "kind"; "index"; "trace"; "elapsed_s"; "label" ]
        (List.map fst fs)

let test_malformed_rejected () =
  List.iter
    (fun line ->
      Alcotest.(check bool) line true (Jsonl.read line = None))
    [
      "";
      "[1,2]";
      {|{"a":1|};
      {|{"a":1}}|};
      {|{"a":1,}|};
      {|{"a":[1,2}|};
      {|{"a":"unterminated}|};
      {|{"a":0x10}|};
      {|{"a":tru}|};
      {|{a:1}|};
    ]

let suite =
  [
    qcheck ~name:"escaped strings parse back"
      (QCheck.pair tricky_string tricky_string)
      prop_string_roundtrip;
    qcheck ~name:"%.17g floats roundtrip bit-exactly" any_float
      prop_float_roundtrip;
    qcheck ~name:"ints are written as string_of_int" any_int prop_int_bytes;
    Alcotest.test_case "every value kind has pinned bytes" `Quick
      test_every_value_bytes;
    Alcotest.test_case "non-finite floats are written as null" `Quick
      test_non_finite_is_null;
    Alcotest.test_case "fields read past a nested trace array" `Quick
      test_field_after_nested;
    Alcotest.test_case "malformed records are rejected" `Quick
      test_malformed_rejected;
  ]
