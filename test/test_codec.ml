(* Tests for the cache payload codec (Cache.Codec): every combinator
   round-trips, a payload with the wrong tokens is rejected, encode
   refuses values the grammar cannot write unambiguously, and the engine
   outcome keeps its frozen bytes. *)

module C = Cache.Codec

let qcheck ~name arb prop =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x16 |])
    (QCheck.Test.make ~name ~count:500 arb prop)

let roundtrip ?(eq = ( = )) c v =
  match C.decode c (C.encode c v) with Some v' -> eq v v' | None -> false

let float_eq a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.bits_of_float a = Int64.bits_of_float b

let any_float =
  QCheck.(
    oneof
      [
        float;
        map Int64.float_of_bits int64;
        oneofl
          [ 0.; -0.; Float.nan; Float.infinity; Float.neg_infinity; 5e-324 ];
      ])

(* string atoms: anything but the reserved atoms and the separators of
   the context — ' ' always, ',' and ':' inside a list *)
let atom_string ~in_list =
  let open QCheck.Gen in
  let c =
    frequency
      [
        (6, char_range 'a' 'z');
        ( 2,
          oneofl
            ([ '-'; '.'; '='; '\n'; '\t' ]
            @ if in_list then [] else [ ','; ':' ]) );
        (1, char_range '\128' '\255');
      ]
  in
  QCheck.make ~print:String.escaped
    (string_size ~gen:c (1 -- 12) >>= fun s ->
     return (if s = "-" || s = "." then s ^ "x" else s))

let small_list g = QCheck.(list_of_size Gen.(0 -- 6) g)
let bits_arb = QCheck.(map Array.of_list (list_of_size Gen.(1 -- 40) bool))

type rec_ = { a : int; b : bool }

let rec_codec =
  C.(conv (fun r -> (r.a, r.b)) (fun (a, b) -> { a; b }) (pair int bool))

let props =
  [
    qcheck ~name:"int" QCheck.int (roundtrip C.int);
    qcheck ~name:"bool" QCheck.bool (roundtrip C.bool);
    qcheck ~name:"float bit-exact incl. -0. and nan" any_float
      (roundtrip ~eq:float_eq C.float);
    qcheck ~name:"string" (atom_string ~in_list:false) (roundtrip C.string);
    qcheck ~name:"bits"
      QCheck.(oneof [ always [||]; bits_arb ])
      (roundtrip C.bits);
    qcheck ~name:"option"
      QCheck.(option (pair int (atom_string ~in_list:false)))
      (roundtrip C.(option (pair int string)));
    qcheck ~name:"list of multi-atom elements"
      (small_list QCheck.(pair (option int) (atom_string ~in_list:true)))
      (roundtrip C.(list (pair (option int) string)));
    qcheck ~name:"array"
      QCheck.(array_of_size Gen.(0 -- 6) (pair (option int) any_float))
      (roundtrip
         ~eq:(fun x y ->
           Array.length x = Array.length y
           && Array.for_all2 (fun (i, f) (j, g) -> i = j && float_eq f g) x y)
         C.(array (pair (option int) float)));
    qcheck ~name:"pair" QCheck.(pair (atom_string ~in_list:false) bool)
      (roundtrip C.(pair string bool));
    qcheck ~name:"triple"
      QCheck.(triple bits_arb (small_list int) (option bool))
      (roundtrip C.(triple bits (list int) (option bool)));
    qcheck ~name:"conv"
      QCheck.(small_list (map (fun (a, b) -> { a; b }) (pair int bool)))
      (roundtrip C.(list rec_codec));
  ]

let rejected c s =
  match C.decode c s with None -> true | Some _ -> false | exception _ -> true

let test_rejects () =
  let check what c s =
    Alcotest.(check bool) (what ^ ": " ^ s) true (rejected c s)
  in
  let ii = C.(pair int int) in
  check "trailing token" ii "1 2 3";
  check "missing token" ii "1";
  check "non-number atom" ii "1 x";
  check "- where an int is expected" ii "- 2";
  check "empty list written as \"\"" C.(list int) "";
  check "trailing atom in a list element" C.(list int) "1:2";
  check "missing atom in a list element" C.(list ii) "1:2,3";
  check "non-bit character" C.bits "0120";
  check "reserved string atom" C.string "."

let raises what f =
  match f () with
  | (_ : string) -> Alcotest.failf "%s: encode did not raise" what
  | exception Invalid_argument _ -> ()

let test_encode_raises () =
  raises "list inside a list" (fun () ->
      C.(encode (list (list int))) [ [ 1 ] ]);
  raises "' ' in a string atom" (fun () -> C.(encode string) "a b");
  raises "',' in a list atom" (fun () -> C.(encode (list string)) [ "a,b" ]);
  raises "':' in a list atom" (fun () -> C.(encode (list string)) [ "a:b" ]);
  raises "empty string atom" (fun () -> C.(encode string) "");
  raises "'-' string atom" (fun () -> C.(encode (pair int string)) (1, "-"));
  raises "empty bits inside a list" (fun () -> C.(encode (list bits)) [ [||] ]);
  Alcotest.(check string) "',' and ':' are fine at top level" "a,b:c"
    (C.(encode string) "a,b:c")

(* the outcome payload's bytes are frozen: golden digests and the
   benchmark hash and compare them *)
let test_outcome_bytes () =
  let o =
    {
      Sim.Engine.decisions = [| Some 1; None; Some 0; Some 1 |];
      faulty = [| false; true; false; false |];
      rounds_total = 9;
      decided_round = Some 7;
      messages_sent = 48;
      bits_sent = 96;
      messages_omitted = 3;
      rand_calls = 2;
      rand_bits = 5;
      faults_used = 1;
    }
  in
  Alcotest.(check string) "decided outcome" "1,-,0,1 0100 9 7 48 96 3 2 5 1"
    (Supervise.Cached.outcome_to_string o);
  Alcotest.(check string) "empty, undecided outcome" ". . 4 - 48 96 3 2 5 1"
    (Supervise.Cached.outcome_to_string
       {
         o with
         decisions = [||];
         faulty = [||];
         rounds_total = 4;
         decided_round = None;
       })

let suite =
  props
  @ [
      Alcotest.test_case "wrong tokens are rejected" `Quick test_rejects;
      Alcotest.test_case "encode refuses ambiguous values" `Quick
        test_encode_raises;
      Alcotest.test_case "outcome bytes are frozen" `Quick test_outcome_bytes;
    ]
