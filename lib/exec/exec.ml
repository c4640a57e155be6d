(* Deterministic domain-pool executor: pre-indexed result slots + an atomic
   work counter. See exec.mli for the determinism contract. *)

let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

(* 0 means "use the recommended count"; set once from --jobs at startup. *)
let default = ref 0

let set_default_jobs n =
  if n < 0 then invalid_arg "Exec.set_default_jobs: jobs must be >= 0";
  default := n

let default_jobs () = if !default <= 0 then recommended_jobs () else !default

type 'b slot =
  | Empty
  | Value of 'b
  | Raised of exn * Printexc.raw_backtrace
  | Cancelled  (** skipped by the early-cancel fast path *)

let mapi ?jobs f xs =
  let n = Array.length xs in
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Exec.mapi: jobs must be >= 1";
  let jobs = min jobs n in
  if jobs <= 1 then Array.mapi f xs
  else begin
    let slots = Array.make n Empty in
    let next = Atomic.make 0 in
    (* Early-cancel fast path: the lowest failed index seen so far. A task
       with a higher index than a known failure can never be the one whose
       exception is re-raised, so skipping it changes nothing observable —
       while tasks at lower indices must still run, since they may fail
       with an even lower index. [compare_and_set] keeps the value at the
       minimum under concurrent failures. *)
    let failed = Atomic.make max_int in
    let rec note_failure i =
      let cur = Atomic.get failed in
      if i < cur && not (Atomic.compare_and_set failed cur i) then
        note_failure i
    in
    (* Each worker claims the next unclaimed index; distinct indices mean
       distinct slots, so workers never write the same cell. *)
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (if i > Atomic.get failed then slots.(i) <- Cancelled
         else
           slots.(i) <-
             (match f i xs.(i) with
             | v -> Value v
             | exception e ->
                 let bt = Printexc.get_raw_backtrace () in
                 note_failure i;
                 Raised (e, bt)));
        work ()
      end
    in
    let spawned = Array.init (jobs - 1) (fun _ -> Domain.spawn work) in
    work ();
    Array.iter Domain.join spawned;
    (* In-order harvest: the lowest-indexed failure raises, deterministically.
       [Cancelled] slots only exist at indices above that failure, so the
       in-order scan raises before ever reaching one. *)
    Array.map
      (function
        | Value v -> v
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Empty | Cancelled -> assert false)
      slots
  end

let map ?jobs f xs = mapi ?jobs (fun _ x -> f x) xs
