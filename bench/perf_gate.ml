(* Performance gate over the engine benchmarks.

   Reads JSON-lines rows from a records file and runs whichever checks
   its rows enable (at least one family must be present):

   kind="micro" rows (the micro-engine experiment) are compared against
   the checked-in baseline bench/micro_baseline.json:

   - regression: words_per_round must not exceed 2x the baseline value
     (plus a small absolute slack so near-zero baselines don't make the
     gate flaky), at every baseline point.

   kind="scale-throughput" rows (the scale experiment, non-stable mode)
   are gated within the records file itself — throughput is machine-
   dependent, so there is no baseline, but the fast/classic ratio on one
   machine is meaningful:

   - headline: at flood n=1024, the broadcast fast path must sustain at
     least 5x the classic pointwise path's rounds per second — the
     broadcast-native delivery acceptance bar.

   kind="micro-throughput" records are ignored entirely: absolute
   throughput is a logged artifact, never gated.

   No JSON library: records are flat one-line objects written by
   Bench_util.Out, so plain substring field extraction is exact. Exit
   status 0 = gate passed, 1 = regression or missing data, 2 = usage. *)

type row = {
  protocol : string;
  path : string;
  n : int;
  words_per_round : float;
}

(* Extract the value following ["key":] in a flat JSON-lines record. *)
let field_raw line key =
  let pat = "\"" ^ key ^ "\":" in
  let plen = String.length pat in
  let llen = String.length line in
  let rec scan i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then begin
      let start = i + plen in
      let stop = ref start in
      if start < llen && line.[start] = '"' then begin
        stop := start + 1;
        while !stop < llen && line.[!stop] <> '"' do
          incr stop
        done;
        Some (String.sub line (start + 1) (!stop - start - 1))
      end
      else begin
        while
          !stop < llen && line.[!stop] <> ',' && line.[!stop] <> '}'
        do
          incr stop
        done;
        Some (String.sub line start (!stop - start))
      end
    end
    else scan (i + 1)
  in
  scan 0

let parse_row line =
  match
    ( field_raw line "protocol",
      field_raw line "path",
      field_raw line "n",
      field_raw line "words_per_round" )
  with
  | Some protocol, Some path, Some n, Some wpr -> (
      match (int_of_string_opt n, float_of_string_opt wpr) with
      | Some n, Some words_per_round -> Some { protocol; path; n; words_per_round }
      | _ -> None)
  | _ -> None

let load_kind file ~kind parse =
  let ic = open_in file in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       match field_raw line "kind" with
       | Some k when k = kind -> (
           match parse line with
           | Some r -> rows := r :: !rows
           | None -> ())
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !rows

let load_rows file = load_kind file ~kind:"micro" parse_row

(* kind="scale-throughput" rows reuse the same record shape with
   rounds_per_sec in place of words_per_round. *)
let parse_scale line =
  match
    ( field_raw line "protocol",
      field_raw line "path",
      field_raw line "n",
      field_raw line "rounds_per_sec" )
  with
  | Some protocol, Some path, Some n, Some rps -> (
      match (int_of_string_opt n, float_of_string_opt rps) with
      | Some n, Some words_per_round -> Some { protocol; path; n; words_per_round }
      | _ -> None)
  | _ -> None

(* Later rows win: a records file may hold several runs appended. *)
let lookup rows ~protocol ~path ~n =
  List.fold_left
    (fun acc r ->
      if r.protocol = protocol && r.path = path && r.n = n then
        Some r.words_per_round
      else acc)
    None rows

let () =
  let records, baseline =
    match Sys.argv with
    | [| _; records; baseline |] -> (records, baseline)
    | _ ->
        prerr_endline "usage: perf_gate <records.json> <baseline.json>";
        exit 2
  in
  let current = load_rows records in
  let scale = load_kind records ~kind:"scale-throughput" parse_scale in
  if current = [] && scale = [] then begin
    Printf.eprintf
      "perf_gate: no kind=\"micro\" or kind=\"scale-throughput\" rows in %s\n\
       (run bench/main.exe --only micro-engine or --only scale first; the\n\
       scale experiment only emits throughput rows without --stable-json)\n"
      records;
    exit 1
  end;
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr failures; Printf.printf "FAIL %s\n" s) fmt in
  if current <> [] then begin
    let base = load_rows baseline in
    if base = [] then begin
      Printf.eprintf "perf_gate: no kind=\"micro\" rows in baseline %s\n"
        baseline;
      exit 1
    end;
    (* Regression check: every baseline point must exist and stay within 2x
       (+256 words absolute slack for near-zero steady-state baselines). *)
    List.iter
      (fun b ->
        match lookup current ~protocol:b.protocol ~path:b.path ~n:b.n with
        | None ->
            fail "%s/%s n=%d: point missing from current records" b.protocol
              b.path b.n
        | Some w ->
            let limit = (2. *. b.words_per_round) +. 256. in
            if w > limit then
              fail "%s/%s n=%d: %.0f words/round > limit %.0f (baseline %.0f)"
                b.protocol b.path b.n w limit b.words_per_round
            else
              Printf.printf "ok   %-14s %-9s n=%-4d %12.0f words/round (baseline %.0f)\n"
                b.protocol b.path b.n w b.words_per_round)
      base
  end;
  (* Throughput headline: the broadcast fast path must sustain >= 5x the
     classic pointwise path's rounds/sec for flood at n=1024. Both rows
     come from the same records file — same machine, same campaign — so
     the ratio is meaningful even though absolute throughput is not. *)
  if scale <> [] then begin
    let fast = lookup scale ~protocol:"flood" ~path:"fast" ~n:1024 in
    let classic = lookup scale ~protocol:"flood" ~path:"classic" ~n:1024 in
    match (fast, classic) with
    | Some f, Some c ->
        let ratio = f /. Float.max 1e-9 c in
        if ratio < 5. then
          fail "flood n=1024: fast/classic rounds-per-sec ratio %.1fx < 5x"
            ratio
        else
          Printf.printf "ok   flood n=1024 fast/classic throughput %.1fx (>= 5x)\n"
            ratio
    | _ ->
        fail
          "flood n=1024: missing fast or classic scale-throughput row (run \
           the scale experiment with --scale-path both)"
  end;
  if !failures > 0 then begin
    Printf.printf "perf gate: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "perf gate: all checks passed"
