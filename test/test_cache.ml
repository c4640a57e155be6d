(* Tests for the content-addressed run cache (lib/cache), the cache-aware
   supervision wrappers (Supervise.Cached), the canonical Run_spec API,
   and the fuzz-harness store dedup. The load-bearing property throughout:
   a cache hit is indistinguishable from a recompute — identical outcome,
   identical JSON rows — except for the cache-hit provenance event. *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i =
    i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1))
  in
  at 0

let temp_dir () =
  let path = Filename.temp_file "cache_test" ".dir" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* the raw payload: every stored byte string decodes *)
let lookup s key = Cache.Store.lookup s ~decode:Option.some key

let with_store ?fingerprint f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir (fun () -> Cache.Store.open_ ?fingerprint ~dir ()))

(* --- the store itself --- *)

let test_store_roundtrip () =
  with_store (fun _dir open_ ->
      let s = open_ () in
      Cache.Store.add s ~key:"k1" "payload one";
      Cache.Store.add s ~key:"k2" "payload\ntwo with\nnewlines";
      Cache.Store.add s ~key:"k1" "never stored: k1 already present";
      Alcotest.(check (option string))
        "k1" (Some "payload one")
        (lookup s "k1");
      Alcotest.(check (option string))
        "k2"
        (Some "payload\ntwo with\nnewlines")
        (lookup s "k2");
      Alcotest.(check (option string)) "absent" None (lookup s "k3");
      let st = Cache.Store.stats s in
      Alcotest.(check int) "hits" 2 st.Cache.Stats.hits;
      Alcotest.(check int) "misses" 1 st.Cache.Stats.misses;
      Alcotest.(check int) "writes (dup skipped)" 2 st.Cache.Stats.writes;
      Cache.Store.close s;
      (* persistence across reopen *)
      let s2 = open_ () in
      Alcotest.(check int) "entries persist" 2 (Cache.Store.entries s2);
      Alcotest.(check (option string))
        "k1 persists" (Some "payload one")
        (lookup s2 "k1");
      Alcotest.(check int) "no corrupt lines" 0 (Cache.Store.corrupt s2);
      Cache.Store.close s2)

let test_corrupt_index_skipped () =
  with_store (fun dir open_ ->
      let s = open_ () in
      Cache.Store.add s ~key:"good" "survives";
      Cache.Store.close s;
      (* a torn append (no tab), a bad size, and trailing garbage *)
      let oc =
        open_out_gen [ Open_append ] 0o644 (Filename.concat dir "index")
      in
      output_string oc "deadbeef\n";
      output_string oc "0123456789abcdef0123456789abcdef\tnotasize\n";
      output_string oc "0123456789abcdef0123456789abcde";
      close_out oc;
      let s = open_ () in
      Alcotest.(check int) "good entry kept" 1 (Cache.Store.entries s);
      Alcotest.(check int) "corrupt lines counted" 3 (Cache.Store.corrupt s);
      Alcotest.(check (option string))
        "good payload intact" (Some "survives")
        (lookup s "good");
      Cache.Store.close s)

let test_torn_payload_self_repair () =
  with_store (fun dir open_ ->
      let s = open_ () in
      Cache.Store.add s ~key:"k" "full payload";
      let hex = Cache.Store.digest_key s "k" in
      Cache.Store.close s;
      (* truncate the object: a torn write the rename never committed over *)
      let obj = Filename.concat (Filename.concat dir "objects") hex in
      let oc = open_out obj in
      output_string oc "full pay";
      close_out oc;
      let s = open_ () in
      Alcotest.(check (option string))
        "torn payload dropped" None (lookup s "k");
      Alcotest.(check int) "counted corrupt" 1 (Cache.Store.corrupt s);
      (* exactly one recompute repairs it *)
      Cache.Store.add s ~key:"k" "full payload";
      Alcotest.(check (option string))
        "repaired" (Some "full payload")
        (lookup s "k");
      Cache.Store.close s)

let test_fingerprint_invalidates () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let s = Cache.Store.open_ ~fingerprint:"v1" ~dir () in
      Cache.Store.add s ~key:"k" "computed under v1";
      Cache.Store.close s;
      (* a fingerprint bump addresses different objects: a stale store
         never serves results computed by other code *)
      let s2 = Cache.Store.open_ ~fingerprint:"v2" ~dir () in
      Alcotest.(check (option string))
        "v1 entry invisible under v2" None (lookup s2 "k");
      Cache.Store.add s2 ~key:"k" "computed under v2";
      Alcotest.(check (option string))
        "v2 entry" (Some "computed under v2")
        (lookup s2 "k");
      Cache.Store.close s2;
      (* the v1 entry was never clobbered *)
      let s1 = Cache.Store.open_ ~fingerprint:"v1" ~dir () in
      Alcotest.(check (option string))
        "v1 entry survives" (Some "computed under v1")
        (lookup s1 "k");
      Cache.Store.close s1)

(* the default fingerprint is the format version plus the build-time
   digest of the sources that decide a run, and every store opened
   without one (run, fuzz and bench alike) is addressed under it *)
let test_fingerprint_is_derived () =
  let prefix = Cache.format_version ^ "/" in
  let fp = Cache.fingerprint in
  let p = String.length prefix in
  Alcotest.(check string) "format version first" prefix (String.sub fp 0 p);
  let digest = String.sub fp p (String.length fp - p) in
  Alcotest.(check int) "an MD5 hex digest" 32 (String.length digest);
  String.iter
    (fun c ->
      if not (String.contains "0123456789abcdef" c) then
        Alcotest.failf "not hex: %S" digest)
    digest;
  with_store (fun _dir open_ ->
      let s = open_ () in
      Alcotest.(check string) "default store" fp (Cache.Store.fingerprint s);
      Cache.Store.close s)

let test_concurrent_writers () =
  with_store (fun _dir open_ ->
      let s = open_ () in
      (* 4 domains, overlapping key ranges: every key lands exactly once,
         no torn index lines, every payload reads back intact *)
      let worker lo =
        Domain.spawn (fun () ->
            for i = lo to lo + 59 do
              Cache.Store.add s
                ~key:(Printf.sprintf "key-%03d" i)
                (Printf.sprintf "payload for %03d" i)
            done)
      in
      let ds = List.map worker [ 0; 20; 40; 60 ] in
      List.iter Domain.join ds;
      Cache.Store.close s;
      let s = open_ () in
      Alcotest.(check int) "120 unique keys" 120 (Cache.Store.entries s);
      Alcotest.(check int) "no torn lines" 0 (Cache.Store.corrupt s);
      for i = 0 to 119 do
        Alcotest.(check (option string))
          (Printf.sprintf "key-%03d" i)
          (Some (Printf.sprintf "payload for %03d" i))
          (lookup s (Printf.sprintf "key-%03d" i))
      done;
      Cache.Store.close s)

(* --- cache hit == recompute, across the whole registry --- *)

(* A small decided run per registry protocol: adversary none, mixed
   inputs, the registry's own rounds bound. *)
let spec_for (e : Harness.Registry.entry) =
  let n = max e.Harness.Registry.min_n 8 in
  let t = min 1 (e.Harness.Registry.max_t n) in
  Run_spec.make ~protocol:e.Harness.Registry.id ~n ~t_max:t ~seed:3 ()

let test_hit_equals_recompute () =
  with_store (fun _dir open_ ->
      let s = open_ () in
      List.iter
        (fun (e : Harness.Registry.entry) ->
          let spec = spec_for e in
          let name = e.Harness.Registry.id in
          let cold =
            match Run_spec.execute ~store:s spec with
            | Ok (o, None) -> o
            | _ -> Alcotest.failf "%s: cold run failed" name
          in
          let sink, events = Trace.Sink.memory () in
          let warm =
            match Run_spec.execute ~trace:sink ~store:s spec with
            | Ok (o, None) -> o
            | _ -> Alcotest.failf "%s: warm run failed" name
          in
          if warm <> cold then
            Alcotest.failf "%s: warm outcome differs from cold" name;
          (* provenance: the warm trace is exactly one cache-hit event
             carrying the content digest *)
          match events () with
          | [ Trace.Event.Cache_hit { key } ] ->
              Alcotest.(check string)
                (name ^ " digest")
                (Cache.Store.digest_key s (Run_spec.to_string spec))
                key
          | evs ->
              Alcotest.failf "%s: expected exactly one cache-hit, got %d" name
                (List.length evs))
        Harness.Registry.all;
      Alcotest.(check int)
        "one entry per protocol"
        (List.length Harness.Registry.all)
        (Cache.Store.entries s);
      Cache.Store.close s)

let test_hit_equals_recompute_net () =
  with_store (fun _dir open_ ->
      let s = open_ () in
      let net = { Net.Spec.default with Net.Spec.drop = 0.1; retries = 8 } in
      let spec =
        Run_spec.make ~protocol:"flood" ~n:16 ~t_max:2 ~seed:5 ~net ()
      in
      let cold =
        match Run_spec.execute ~store:s spec with
        | Ok (o, Some d) -> (o, d)
        | _ -> Alcotest.fail "cold net run failed"
      in
      let warm =
        match Run_spec.execute ~store:s spec with
        | Ok (o, Some d) -> (o, d)
        | _ -> Alcotest.fail "warm net run failed"
      in
      if warm <> cold then
        Alcotest.fail "net warm (outcome, degradation) differs from cold";
      let st = Cache.Store.stats s in
      Alcotest.(check int) "one miss then one hit" 1 st.Cache.Stats.hits;
      Cache.Store.close s)

(* The oracle judges cache hits like fresh runs: a violating outcome
   planted under a spec's key comes back Violated, never Ok. *)
let test_planted_violation () =
  with_store (fun _dir open_ ->
      let s = open_ () in
      let spec = Run_spec.make ~protocol:"flood" ~n:8 ~t_max:1 ~seed:2 () in
      let o =
        match Run_spec.execute spec with
        | Ok (o, None) -> o
        | _ -> Alcotest.fail "fresh run failed"
      in
      (* flip the decision of the first non-faulty process *)
      let decisions = Array.copy o.Sim.Engine.decisions in
      let pid = Option.get (Array.find_index not o.faulty) in
      decisions.(pid) <- Option.map (fun v -> 1 - v) decisions.(pid);
      Cache.Store.add s ~key:(Run_spec.to_string spec)
        (Supervise.Cached.outcome_to_string { o with decisions });
      (match Run_spec.execute ~store:s spec with
      | Error (Supervise.Violated { property; _ }, Some _) ->
          Alcotest.(check string) "property" "agreement" property
      | Ok _ -> Alcotest.fail "a planted violating outcome was served as Ok"
      | Error (k, _) ->
          Alcotest.failf "expected Violated, got %a" Supervise.pp_failure_kind k);
      Alcotest.(check int) "served from the store" 1
        (Cache.Store.stats s).Cache.Stats.hits;
      Cache.Store.close s)

(* Each way an entry can go bad — a torn object, a same-length garbage
   object the size check cannot see, a torn index line — costs exactly
   one recompute: the damaged entry reads as a miss (never a hit),
   counts as corrupt, and the write-back repairs it for this session and
   the next. *)
let test_corrupt_entry_one_recompute () =
  let spec = Run_spec.make ~protocol:"flood" ~n:8 ~t_max:1 ~seed:2 () in
  let served_from_cache what s =
    let sink, events = Trace.Sink.memory () in
    (match Run_spec.execute ~trace:sink ~store:s spec with
    | Ok _ -> ()
    | Error _ -> Alcotest.failf "%s: run failed" what);
    match events () with [ Trace.Event.Cache_hit _ ] -> true | _ -> false
  in
  let rewrite path f =
    let ic = open_in_bin path in
    let old = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let oc = open_out_bin path in
    output_string oc (f old);
    close_out oc
  in
  let object_path dir s =
    Filename.concat
      (Filename.concat dir "objects")
      (Cache.Store.digest_key s (Run_spec.to_string spec))
  in
  List.iter
    (fun (what, damage) ->
      with_store (fun dir open_ ->
          let s = open_ () in
          ignore (served_from_cache what s : bool);
          let obj = object_path dir s in
          Cache.Store.close s;
          damage dir obj;
          let s = open_ () in
          Alcotest.(check bool)
            (what ^ ": recomputed") false
            (served_from_cache what s);
          Alcotest.(check bool)
            (what ^ ": then a hit") true
            (served_from_cache what s);
          let st = Cache.Store.stats s in
          Alcotest.(check (list int))
            (what ^ ": hits, misses, writes")
            [ 1; 1; 1 ]
            [ st.Cache.Stats.hits; st.Cache.Stats.misses; st.Cache.Stats.writes ];
          Alcotest.(check int) (what ^ ": corrupt") 1 (Cache.Store.corrupt s);
          Cache.Store.close s;
          let s = open_ () in
          Alcotest.(check bool)
            (what ^ ": repaired on disk") true
            (served_from_cache what s);
          Cache.Store.close s))
    [
      ( "torn object",
        fun _ obj -> rewrite obj (fun p -> String.sub p 0 (String.length p / 2))
      );
      ( "same-length garbage object",
        fun _ obj -> rewrite obj (fun p -> String.make (String.length p) 'x') );
      (* right token count and length, but rounds_total is not a number:
         the decoder raises, and the lookup counts that as corrupt *)
      ( "non-number token",
        fun _ obj ->
          rewrite obj (fun p ->
              String.split_on_char ' ' p
              |> List.mapi (fun i tok ->
                     if i = 2 then String.make (String.length tok) 'x' else tok)
              |> String.concat " ") );
      ( "torn index line",
        fun dir _ ->
          rewrite (Filename.concat dir "index") (fun l ->
              String.sub l 0 (String.length l / 2)) );
    ]

(* --- Supervise.Cached.map --- *)

let test_cached_map_merge () =
  with_store (fun _dir open_ ->
      let s = open_ () in
      let codec = Cache.Codec.int in
      let key i = Printf.sprintf "map|%d" i in
      (* pre-populate entries 1 and 3 with sentinel values the function
         would never produce: a hit must win over a recompute *)
      Cache.Store.add s ~key:(key 1) "100";
      Cache.Store.add s ~key:(key 3) "300";
      let ran = Array.make 6 false in
      let labels = ref [] in
      let results =
        Supervise.Cached.map ~jobs:1 ~store:s ~key ~codec
          ~describe:(fun i x ->
            labels := (i, x) :: !labels;
            {
              Supervise.d_label = Printf.sprintf "elt-%d" i;
              d_seed = None;
              d_replay = None;
            })
          (fun i ->
            ran.(i) <- true;
            if i = 5 then failwith "element 5 fails";
            10 * i)
          [| 0; 1; 2; 3; 4; 5 |]
      in
      let got = Array.map (function Ok v -> v | Error _ -> -1) results in
      Alcotest.(check (array int))
        "hits and fresh merge in order"
        [| 0; 100; 20; 300; 40; -1 |]
        got;
      Alcotest.(check (array bool))
        "only misses executed"
        [| true; false; true; false; true; true |]
        ran;
      (* describe saw the ORIGINAL indices of the misses, not their
         positions in the compacted to-run array *)
      List.iter
        (fun (i, x) ->
          Alcotest.(check int) "describe index = element" x i;
          if not (List.mem i [ 0; 2; 4; 5 ]) then
            Alcotest.failf "describe called for cached element %d" i)
        !labels;
      (* so does the quarantine record of a failure after a hit: element
         5 is the 4th miss, but its index is 5, as on a cold pass *)
      (match results.(5) with
      | Error f ->
          Alcotest.(check (pair int string))
            "failure names the original index" (5, "elt-5")
            (f.Supervise.index, f.Supervise.label)
      | Ok _ -> Alcotest.fail "element 5 should fail");
      (* fresh successes were written back, failures were not *)
      Alcotest.(check (option string))
        "write-back" (Some "40")
        (lookup s (key 4));
      Alcotest.(check (option string))
        "failure not cached" None
        (lookup s (key 5));
      Cache.Store.close s)

(* --- Run_spec canonical serialization --- *)

let test_run_spec_roundtrip () =
  let specs =
    [
      Run_spec.make ~protocol:"optimal" ~n:31 ~t_max:1 ~seed:7
        ~adversary:"random" ~inputs:"ones" ();
      Run_spec.make ~protocol:"param" ~x:4 ~n:36 ~t_max:1 ~seed:1 ();
      Run_spec.make ~protocol:"flood" ~n:16 ~t_max:2 ~seed:5
        ~net:{ Net.Spec.default with Net.Spec.drop = 0.05 }
        ~budget:
          (Supervise.Budget.make ~wall_s:1.5 ~max_rounds:100
             ~max_messages:100000 ~max_rand_bits:4096 ())
        ();
    ]
  in
  List.iter
    (fun spec ->
      let s = Run_spec.to_string spec in
      match Run_spec.of_string s with
      | Ok spec' ->
          if spec' <> spec then
            Alcotest.failf "roundtrip changed the spec: %s" s;
          Alcotest.(check string)
            "re-serialization is canonical" s
            (Run_spec.to_string spec')
      | Error e -> Alcotest.failf "of_string rejected %S: %s" s e)
    specs;
  (* the canonical string is frozen: a change here invalidates every
     existing cache, so it must be deliberate *)
  Alcotest.(check string)
    "frozen format"
    "p=optimal n=31 t=1 x=- seed=7 a=random i=ones wall=- rounds=- msgs=- \
     rand=- net=-"
    (Run_spec.to_string
       (Run_spec.make ~protocol:"optimal" ~n:31 ~t_max:1 ~seed:7
          ~adversary:"random" ~inputs:"ones" ()));
  let cmd =
    Run_spec.to_command
      (Run_spec.make ~protocol:"flood" ~n:8 ~t_max:1 ~seed:1 ())
  in
  Alcotest.(check bool)
    "replay one-liner embeds the canonical spec" true
    (contains cmd "run --spec 'p=flood n=8 t=1 ")

(* a= takes a name or any strategy term, i= a name or n bits. One check
   refuses a bad spelling on every surface: of_string, and resolve and
   execute on a spec assembled with make. *)
let test_run_spec_spellings () =
  let make ?(adversary = "none") ?(inputs = "mixed") () =
    Run_spec.make ~adversary ~inputs ~protocol:"flood" ~n:8 ~t_max:1 ~seed:1
      ()
  in
  let refused what spec needle =
    let says where m =
      Alcotest.(check bool) (what ^ ": " ^ where ^ " says why") true
        (contains m needle)
    in
    (match Run_spec.resolve spec with
    | Ok _ -> Alcotest.failf "%s: resolve accepted it" what
    | Error m -> says "resolve" m);
    (match Run_spec.of_string (Run_spec.to_string spec) with
    | Ok _ -> Alcotest.failf "%s: of_string accepted it" what
    | Error m -> says "of_string" m);
    match Run_spec.execute spec with
    | exception Invalid_argument m -> says "execute" m
    | _ -> Alcotest.failf "%s: execute ran it" what
  in
  refused "bogus adversary, nope inputs"
    (make ~adversary:"bogus" ~inputs:"nope" ())
    "unknown adversary";
  refused "nope inputs" (make ~inputs:"nope" ()) "unknown inputs";
  refused "4 bits for n = 8" (make ~inputs:"0101" ()) "or 8 bits";
  refused "a non-bit" (make ~inputs:"01010102" ()) "unknown inputs";
  refused "a malformed term" (make ~adversary:"strike(p0)" ()) "strategy term";
  refused "an integer past max_int"
    (make ~adversary:"strike(p99999999999999999999,out)" ())
    "unknown adversary";
  (* a term and a bit string print as themselves, a term in its canonical
     spelling, and round-trip *)
  let spec = make ~adversary:"strike(hold0x2,to01)" ~inputs:"00000111" () in
  Alcotest.(check bool) "term and bits in the string" true
    (contains (Run_spec.to_string spec) " a=strike(hold0x2,to1) i=00000111 ");
  Alcotest.(check bool) "round-trips" true
    (Run_spec.of_string (Run_spec.to_string spec) = Ok spec);
  Alcotest.(check (array int)) "bits are pid 0 first"
    [| 0; 0; 0; 0; 0; 1; 1; 1 |] (Run_spec.inputs spec);
  (* and the spec runs the compiled term on those inputs *)
  let cfg = Run_spec.config spec (Result.get_ok (Run_spec.resolve spec)) in
  let direct =
    Sim.Engine.run (Consensus.Flood.protocol_buffered cfg) cfg
      ~adversary:
        (Adversary.Strategy.compile
           (Adversary.Strategy.of_string "strike(hold0x2,to1)"))
      ~inputs:[| 0; 0; 0; 0; 0; 1; 1; 1 |]
  in
  match Run_spec.execute spec with
  | Ok (o, None) -> Alcotest.(check bool) "same outcome" true (o = direct)
  | _ -> Alcotest.fail "the term spec must run clean"

(* p=param x=2 builds the registry's param-x2: both spellings name one
   run, so they must give one canonical string and one cache key *)
let test_run_spec_param_alias () =
  let spelled p x =
    Printf.sprintf
      "p=%s n=64 t=1 x=%s seed=1 a=splitter i=mixed wall=- rounds=- msgs=- \
       rand=- net=-"
      p x
  in
  let parse s =
    match Run_spec.of_string s with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "of_string rejected %S: %s" s e
  in
  let registry = parse (spelled "param-x2" "-") in
  List.iter
    (fun (what, spec) ->
      Alcotest.(check string)
        (what ^ ": canonical string")
        (Run_spec.to_string registry) (Run_spec.to_string spec);
      Alcotest.(check string)
        (what ^ ": digest") (Run_spec.digest registry) (Run_spec.digest spec))
    [
      ("of_string", parse (spelled "param" "2"));
      ( "make",
        Run_spec.make ~protocol:"param" ~x:2 ~adversary:"splitter" ~n:64
          ~t_max:1 ~seed:1 () );
    ];
  (* an x with no registry id keeps the param spelling *)
  Alcotest.(check string) "param x=3 stays param" (spelled "param" "3")
    (Run_spec.to_string (parse (spelled "param" "3")))

let test_run_spec_errors () =
  let err s =
    match Run_spec.of_string s with
    | Ok _ -> Alcotest.failf "of_string accepted %S" s
    | Error e ->
        if String.contains e '\n' then
          Alcotest.failf "error for %S spans lines: %S" s e;
        e
  in
  let spec ?(p = "flood") ?(n = "8") ?(t = "1") ?(x = "-") ?(wall = "-")
      ?(rounds = "-") ?(msgs = "-") ?(rand = "-") ?(a = "none") () =
    Printf.sprintf
      "p=%s n=%s t=%s x=%s seed=1 a=%s i=mixed wall=%s rounds=%s msgs=%s \
       rand=%s net=-"
      p n t x a wall rounds msgs rand
  in
  let rejects what s needle =
    Alcotest.(check bool) what true (contains (err s) needle)
  in
  rejects "arity error names the fields" "p=flood n=8" "12 space-separated";
  (* strings from before the engine token was dropped are 13 tokens *)
  rejects "old engine=auto strings hit the arity error"
    "p=flood n=8 t=1 x=- seed=1 a=none i=mixed engine=auto wall=- rounds=- \
     msgs=- rand=- net=-"
    "12 space-separated";
  rejects "unknown adversary lists the table"
    (spec ~a:"nosuch" ())
    "unknown adversary";
  (* validation: each spec would otherwise crash the engine or run with a
     meaning the CLI flags would not give it *)
  rejects "n = 0" (spec ~n:"0" ~t:"0" ()) "n must be >= 1";
  rejects "t >= n" (spec ~t:"9" ()) "t must be in [0, n)";
  rejects "t = n" (spec ~n:"1" ~t:"1" ()) "t must be in [0, n)";
  rejects "negative t" (spec ~t:"-1" ()) "t must be in [0, n)";
  rejects "param x = 0"
    (spec ~p:"param" ~n:"36" ~x:"0" ())
    "x must be in [1, n]";
  rejects "param x > n" (spec ~p:"param" ~x:"9" ()) "x must be in [1, n]";
  rejects "param without x" (spec ~p:"param" ~n:"36" ()) "param needs x";
  rejects "x on another protocol" (spec ~x:"3" ()) "only param takes x";
  rejects "negative rounds budget" (spec ~rounds:"-3" ()) "rounds budget";
  rejects "zero msgs budget" (spec ~msgs:"0" ()) "msgs budget";
  rejects "zero rand budget" (spec ~rand:"0" ()) "rand budget";
  rejects "nan wall budget" (spec ~wall:"nan" ()) "wall budget";
  rejects "infinite wall budget" (spec ~wall:"infinity" ()) "wall budget";
  rejects "negative wall budget" (spec ~wall:"-0x1p+0" ()) "wall budget";
  (* the flag path assembles specs with make; resolve applies the same
     validation *)
  let resolve ~protocol ~n ~t_max =
    Run_spec.resolve (Run_spec.make ~protocol ~n ~t_max ~seed:1 ())
  in
  (match resolve ~protocol:"flood" ~n:1 ~t_max:1 with
  | Ok _ -> Alcotest.fail "resolved t = n"
  | Error msg ->
      Alcotest.(check bool) "resolve validates" true (contains msg "t must be"));
  match resolve ~protocol:"nope" ~n:8 ~t_max:1 with
  | Ok _ -> Alcotest.fail "resolved an unknown protocol"
  | Error msg ->
      Alcotest.(check bool) "lists registry" true (contains msg "flood");
      Alcotest.(check bool) "mentions param" true (contains msg "param")

let test_cli_budget_flags () =
  let b =
    Run_spec.Cli.budget_of_flags
      { Run_spec.Cli.wall = 0.; rounds = -1; msgs = 0; rand = 0 }
  in
  Alcotest.(check bool)
    "zero and negative mean unlimited" true
    (b = Supervise.Budget.unlimited);
  let b =
    Run_spec.Cli.budget_of_flags
      { Run_spec.Cli.wall = 2.5; rounds = 10; msgs = 0; rand = 64 }
  in
  Alcotest.(check (option int)) "rounds" (Some 10) b.Supervise.Budget.max_rounds;
  Alcotest.(check (option int)) "msgs off" None b.Supervise.Budget.max_messages;
  Alcotest.(check (option int))
    "rand" (Some 64) b.Supervise.Budget.max_rand_bits;
  Alcotest.(check bool)
    "wall" true
    (b.Supervise.Budget.wall_s = Some 2.5)

(* --- the cache-hit trace event codec --- *)

let test_cache_hit_event_codec () =
  let ev = Trace.Event.Cache_hit { key = "0123abcd0123abcd0123abcd0123abcd" } in
  match Trace.Event.of_json (Trace.Event.to_json ev) with
  | Some ev' -> Alcotest.(check bool) "json roundtrip" true (Trace.Event.equal ev ev')
  | None -> Alcotest.fail "json decode failed"

(* --- fuzz store dedup --- *)

let test_fuzz_store_dedup () =
  with_store (fun _dir open_ ->
      let s = open_ () in
      let run () =
        match Conformance.Fuzz.run ~count:12 ~seed:11 ~jobs:1 ~store:s () with
        | Ok stats -> stats
        | Error (f, _) ->
            Alcotest.failf "fuzz found a violation: %a" Conformance.Fuzz.pp_failure
              f
      in
      let first = run () in
      (* Stats is the store's live mutable record — copy the counters *)
      let h1 = (Cache.Store.stats s).Cache.Stats.hits
      and w1 = (Cache.Store.stats s).Cache.Stats.writes in
      Alcotest.(check int) "first pass all misses" 0 h1;
      Alcotest.(check int) "every scenario stored" 12 w1;
      let second = run () in
      Alcotest.(check int) "second pass all hits" 12
        ((Cache.Store.stats s).Cache.Stats.hits - h1);
      Alcotest.(check int) "no new writes" w1
        (Cache.Store.stats s).Cache.Stats.writes;
      (* dedup is invisible in the reported stats *)
      Alcotest.(check int) "scenarios" first.Conformance.Fuzz.scenarios
        second.Conformance.Fuzz.scenarios;
      Alcotest.(check int) "runs" first.Conformance.Fuzz.runs
        second.Conformance.Fuzz.runs;
      Alcotest.(check int) "checked" first.Conformance.Fuzz.checked
        second.Conformance.Fuzz.checked;
      Alcotest.(check int) "determinism checks"
        first.Conformance.Fuzz.determinism_checks
        second.Conformance.Fuzz.determinism_checks;
      Cache.Store.close s);
  (* an interrupted soak: 6 scenarios land in the store, then the full
     12-scenario soak on the same store folds those 6 and runs the rest,
     reporting exactly the uninterrupted soak's stats *)
  let soak ?store count =
    match Conformance.Fuzz.run ~count ~seed:11 ~jobs:1 ?store () with
    | Ok stats -> stats
    | Error (f, _) ->
        Alcotest.failf "fuzz found a violation: %a" Conformance.Fuzz.pp_failure f
  in
  let uninterrupted = soak 12 in
  with_store (fun _dir open_ ->
      let s = open_ () in
      ignore (soak ~store:s 6 : Conformance.Fuzz.stats);
      Cache.Store.close s;
      let s = open_ () in
      let resumed = soak ~store:s 12 in
      Alcotest.(check int) "resume hits the 6 finished scenarios" 6
        (Cache.Store.stats s).Cache.Stats.hits;
      Alcotest.(check (list int)) "resumed stats = uninterrupted"
        Conformance.Fuzz.
          [
            uninterrupted.scenarios; uninterrupted.runs;
            uninterrupted.checked; uninterrupted.determinism_checks;
          ]
        Conformance.Fuzz.
          [
            resumed.scenarios; resumed.runs; resumed.checked;
            resumed.determinism_checks;
          ];
      Cache.Store.close s)

(* A violation is a failed task, and failures are never stored: a
   failing soak rerun on the same store re-finds the same counterexample
   and writes nothing more. The soak is cut at the counterexample (index
   3), so the three scenarios before it are exactly the clean ones. *)
let test_fuzz_violation_not_cached () =
  with_store (fun _dir open_ ->
      let s = open_ () in
      let soak () =
        match
          Conformance.Fuzz.run ~protocols:[ Test_harness.selfish_entry ] ~count:4
            ~seed:3 ~jobs:1 ~store:s ()
        with
        | Ok _ -> Alcotest.fail "fuzzer missed the broken protocol"
        | Error (f, _) ->
            ( Harness.Scenario.to_string f.Conformance.Fuzz.original,
              Harness.Scenario.to_string f.shrunk,
              f.shrink_steps )
      in
      let first = soak () in
      let c1 = Cache.Store.stats s in
      Alcotest.(check int) "only the clean scenarios are written" 3
        c1.Cache.Stats.writes;
      let second = soak () in
      let c2 = Cache.Store.stats s in
      Alcotest.(check (triple string string int))
        "same shrunk counterexample" first second;
      Alcotest.(check int) "the clean scenarios are hits" 3
        (c2.Cache.Stats.hits - c1.Cache.Stats.hits);
      Alcotest.(check int) "the counterexample is re-evaluated" 1
        (c2.Cache.Stats.misses - c1.Cache.Stats.misses);
      Alcotest.(check int) "no new writes" c1.Cache.Stats.writes
        c2.Cache.Stats.writes;
      Cache.Store.close s)

let suite =
  [
    Alcotest.test_case "store roundtrip + reopen" `Quick test_store_roundtrip;
    Alcotest.test_case "corrupt index lines skipped" `Quick
      test_corrupt_index_skipped;
    Alcotest.test_case "torn payload self-repairs" `Quick
      test_torn_payload_self_repair;
    Alcotest.test_case "fingerprint bump invalidates" `Quick
      test_fingerprint_invalidates;
    Alcotest.test_case "fingerprint derives from the sources" `Quick
      test_fingerprint_is_derived;
    Alcotest.test_case "concurrent writers tear-free" `Quick
      test_concurrent_writers;
    Alcotest.test_case "hit = recompute, whole registry" `Quick
      test_hit_equals_recompute;
    Alcotest.test_case "hit = recompute with a net spec" `Quick
      test_hit_equals_recompute_net;
    Alcotest.test_case "planted violation is judged on a hit" `Quick
      test_planted_violation;
    Alcotest.test_case "corrupt entry costs one recompute" `Quick
      test_corrupt_entry_one_recompute;
    Alcotest.test_case "Cached.map merges hits and misses" `Quick
      test_cached_map_merge;
    Alcotest.test_case "Run_spec canonical roundtrip" `Quick
      test_run_spec_roundtrip;
    Alcotest.test_case "Run_spec param x=2 is param-x2" `Quick
      test_run_spec_param_alias;
    Alcotest.test_case "Run_spec rejects malformed specs" `Quick
      test_run_spec_errors;
    Alcotest.test_case "Run_spec spellings: names, terms, bits" `Quick
      test_run_spec_spellings;
    Alcotest.test_case "Cli budget flags" `Quick test_cli_budget_flags;
    Alcotest.test_case "cache-hit event codecs" `Quick
      test_cache_hit_event_codec;
    Alcotest.test_case "fuzz store dedup" `Quick test_fuzz_store_dedup;
    Alcotest.test_case "fuzz violations are never cached" `Quick
      test_fuzz_violation_not_cached;
  ]
