(* Performance gate over the engine benchmarks.

   Reads JSON-lines rows from a records file and runs whichever checks
   its rows enable (at least one family must be present):

   kind="micro" rows (the micro-engine experiment) are compared against
   the checked-in baseline bench/micro_baseline.json:

   - regression: words_per_round must not exceed 2x the baseline value
     (plus a small absolute slack so near-zero baselines don't make the
     gate flaky), at every baseline point. The points cover both
     delivery routes: path="buffered" and "masked" rows run mask plans
     (the mask route), path="pointwise" rows run flood under a
     randomized predicate plan (the general per-message route), and
     path="tail" rows run the "masked" flood runs recording a 5-round
     Trace.Tail, so message-level tracing that allocates per event
     fails the gate.
   - staleness: words_per_round must also stay above half the baseline
     value. A row at or below half fails with "baseline stale:
     regenerate bench/micro_baseline.json", so a change that halves
     allocation refreshes the baseline with it and the 2x bound keeps
     guarding the new level.

   kind="scale-throughput" rows (the scale experiment, non-stable mode)
   are gated within the records file itself — throughput is machine-
   dependent, so there is no baseline, but the fast/classic ratio on one
   machine is meaningful:

   - headline: at flood n=1024, the broadcast fast path must sustain at
     least 5x the classic pointwise path's rounds per second — the
     broadcast-native delivery acceptance bar.

   kind="micro-throughput" records are ignored entirely: absolute
   throughput is a logged artifact, never gated.

   Records are read with Jsonl.read, the reader shared with the writer
   behind Bench_util.Out. Exit status 0 = gate passed, 1 = regression, stale
   baseline or missing data, 2 = usage. *)

type row = {
  protocol : string;
  path : string;
  n : int;
  words_per_round : float;
}

(* Rows of kind [kind] carrying protocol, path, n and the float field
   [metric]; kind="scale-throughput" rows reuse the record shape with
   rounds_per_sec in place of words_per_round. Lines that are not
   well-formed records are skipped. *)
let load_kind file ~kind ~metric =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter_map (fun line ->
         match Jsonl.read line with
         | Some fs when Jsonl.string fs "kind" = Some kind -> (
             match
               ( Jsonl.string fs "protocol",
                 Jsonl.string fs "path",
                 Jsonl.int fs "n",
                 Jsonl.float fs metric )
             with
             | Some protocol, Some path, Some n, Some words_per_round ->
                 Some { protocol; path; n; words_per_round }
             | _ -> None)
         | _ -> None)

let load_rows file = load_kind file ~kind:"micro" ~metric:"words_per_round"

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
  let scale =
    load_kind records ~kind:"scale-throughput" ~metric:"rounds_per_sec"
  in
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
    (* Every baseline point must exist and stay within 2x (+256 words
       absolute slack for near-zero steady-state baselines), and above
       half the baseline. *)
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
            else if 2. *. w <= b.words_per_round then
              fail
                "%s/%s n=%d: %.0f words/round <= half of baseline %.0f: \
                 baseline stale: regenerate bench/micro_baseline.json"
                b.protocol b.path b.n w b.words_per_round
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
        fail "flood n=1024: missing fast or classic scale-throughput row"
  end;
  if !failures > 0 then begin
    Printf.printf "perf gate: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "perf gate: all checks passed"
