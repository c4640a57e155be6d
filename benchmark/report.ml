(* Metric records for one (workload, pass): a human table and one JSON
   line per metric on stdout, then the summary object as the last line.

   The summary holds exactly the metrics BENCHMARK.json lists for the
   pass (end-to-end for the plain pass, per-layer for the layered one);
   workload-specific extras such as the campaign's cache counters appear
   only as records. Every string written here is an internal constant of
   plain ASCII, so quoting needs no escapes. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : int;
  in_summary : bool;
  flag : string option;
}

type t = {
  workload : string;
  pass : string;
  seed : int;
  mutable metrics : metric list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
}

let create ~workload ~pass ~seed =
  { workload; pass; seed; metrics = []; attempted = 0; failed = 0 }

let add r ?(extra = false) ?flag ~samples name unit_ value =
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Report.add: %s is not finite" name);
  r.metrics <-
    { name; unit_; value; samples; in_summary = not extra; flag } :: r.metrics

(* One correctness check: counted as attempted, and as failed with a
   message on stderr when [ok] is false. *)
let check r ok fmt =
  Printf.ksprintf
    (fun msg ->
      r.attempted <- r.attempted + 1;
      if not ok then begin
        r.failed <- r.failed + 1;
        Printf.eprintf "FAIL %s (%s pass): %s\n%!" r.workload r.pass msg
      end)
    fmt

let correct r = r.failed = 0 && r.attempted > 0

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then invalid_arg "Report.median: no samples"
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p a =
  let a = Array.copy a in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then invalid_arg "Report.percentile: no samples";
  a.(max 0 (min (k - 1) (int_of_float (Float.ceil (p *. float_of_int k)) - 1)))

(* The statistic run times are reported with. On a shared virtual
   machine, co-tenants slow a vCPU about 1.5x in stretches of one to
   twenty seconds; over many short samples a low percentile tracks the
   program's own cost, the median tracks the host's load (see
   README.md). With fewer than twenty samples it is the fastest. *)
let low a = percentile 0.05 a

let num v = Printf.sprintf "%.17g" v
let nproc = Domain.recommended_domain_count ()

let print r =
  let fail_frac =
    {
      name = "fail_frac";
      unit_ = "fraction";
      value = float_of_int r.failed /. float_of_int (max 1 r.attempted);
      samples = r.attempted;
      in_summary = false;
      flag = None;
    }
  in
  let ms = List.rev (fail_frac :: r.metrics) in
  Printf.printf "%s  pass=%s  seed=%d  nproc=%d  ocaml=%s\n" r.workload r.pass
    r.seed nproc Sys.ocaml_version;
  List.iter
    (fun m ->
      Printf.printf "  %-26s %14.6g %-9s %6d samples%s\n" m.name m.value m.unit_
        m.samples
        (match m.flag with None -> "" | Some f -> "  FLAG: " ^ f))
    ms;
  List.iter
    (fun m ->
      Printf.printf
        "{\"kind\":\"metric\",\"workload\":\"%s\",\"pass\":\"%s\",\"metric\":\"%s\",\"unit\":\"%s\",\"value\":%s,\"samples\":%d,\"seed\":%d,\"nproc\":%d,\"ocaml\":\"%s\"%s}\n"
        r.workload r.pass m.name m.unit_ (num m.value) m.samples r.seed nproc
        Sys.ocaml_version
        (match m.flag with None -> "" | Some f -> ",\"flag\":\"" ^ f ^ "\""))
    ms;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (correct r) r.attempted r.failed
    (String.concat ","
       (List.filter_map
          (fun m ->
            if m.in_summary then
              Some
                (Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" m.name
                   (num m.value) m.unit_)
            else None)
          ms))
