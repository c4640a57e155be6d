(** A compositional, serializable adversary-strategy algebra.

    The hand-written strategies in [lib/adversary] are points in the
    adversary space; the fuzzing harness needs to *search* that space, so a
    strategy here is a first-order term that can be generated, shrunk,
    printed and re-parsed for replay, and compiled to a legal
    {!Sim.Adversary_intf.t}.

    Legality is by construction: a compiled strike keeps a private victim
    set, only ever corrupts within the remaining budget, and only omits
    messages incident to its victims (who are faulty by then), so the
    engine's {!Sim.Engine.Illegal_plan} can never fire. *)

type target =
  | Pids of int list  (** explicit processes (out-of-range ids ignored) *)
  | Lowest of int  (** the [k] lowest-numbered live processes *)
  | Random of int  (** [k] uniformly random live processes *)
  | Flippers of int  (** [k] live processes that drew randomness this round *)
  | Holders of int * int  (** [k] live holders of candidate bit [b] *)
  | Majority of int  (** [k] live holders of the current majority candidate *)
  | Group of int  (** a majority of sqrt-decomposition group [g] *)

type drop =
  | Out  (** omit the victims' outgoing messages (crash semantics) *)
  | In  (** omit the victims' incoming messages *)
  | All  (** omit every message incident to a victim *)
  | Flip of int  (** each incident message independently, percent chance *)
  | Intra  (** only messages between two victims *)
  | Half  (** omit victims' outgoing messages to the lower half of pids *)
  | ToHolders of int
      (** omit victims' outgoing messages to current holders of candidate
          bit [b] — the Lemma-15-style adaptive split *)

type t =
  | Idle
  | Strike of target * drop
      (** corrupt the target (once, on first activation) and apply the drop
          to the accumulated victim set while active *)
  | Seq of t list  (** element [r-1] is active at round [r]; last persists *)
  | From of int * t  (** body active from round [r] on *)
  | Until of int * t  (** body active through round [r] *)
  | Both of t * t  (** union of two strategies *)
  | Again of t  (** re-evaluate the body's strikes every active round *)

(* --- structural helpers --- *)

(* Leaf weights are chosen so that every [shrink_target]/[shrink_drop]
   candidate is strictly lighter, which makes [size] (and hence the
   scenario measure) strictly decrease along every shrink step. *)
let target_weight = function
  | Pids l -> max 1 (List.length l)
  | Lowest k -> max 1 k
  | Random k | Flippers k | Holders (_, k) | Majority k -> max 1 k + 2
  | Group _ -> 3

let drop_weight = function
  | Out -> 0
  | In | All | Intra | Half | ToHolders _ -> 1
  | Flip p -> if p > 50 then 3 else 2

let rec size = function
  | Idle -> 1
  | Strike (tg, d) -> 2 + target_weight tg + drop_weight d
  | Seq l -> 1 + List.fold_left (fun a s -> a + size s) 0 l
  | From (r, b) | Until (r, b) ->
      1 + (if r > 1 then 1 else 0) + size b
  | Again b -> 1 + size b
  | Both (a, b) -> 1 + size a + size b

(** Conservative check that the strategy stays inside the crash model: every
    strike silences (at least) the victims' outgoing messages and remains
    active for the rest of the run, so a victim never speaks again — the
    crash-model protocols (flood, bjbo, early-stopping, crash-subquadratic)
    are only specified against such strategies. *)
let crash_compatible t =
  (* [tail] = the subterm stays active until the end of the run *)
  let rec go ~tail = function
    | Idle -> true
    | Strike (_, (Out | All)) -> tail
    | Strike (_, (In | Flip _ | Intra | Half | ToHolders _)) -> false
    | Seq [] -> true
    | Seq l ->
        let rec seq = function
          | [] -> true
          | [ last ] -> go ~tail last
          | x :: rest -> go ~tail:false x && seq rest
        in
        seq l
    | From (_, b) -> go ~tail b
    | Until (_, b) -> go ~tail:false b
    | Both (a, b) -> go ~tail a && go ~tail b
    | Again b -> go ~tail b
  in
  go ~tail:true t

(* --- printing / parsing ---

   Grammar (no whitespace):
     t      ::= "idle" | "strike(" target "," drop ")" | "seq[" t (";" t)* "]"
              | "from(" int "," t ")" | "until(" int "," t ")"
              | "both(" t "," t ")" | "again(" t ")"
     target ::= "p" int ("." int)* | "low" int | "rnd" int | "coin" int
              | "hold" bit "x" int | "maj" int | "grp" int
     drop   ::= "out" | "in" | "all" | "p" int | "intra" *)

let target_to_string = function
  | Pids l -> "p" ^ String.concat "." (List.map string_of_int l)
  | Lowest k -> Printf.sprintf "low%d" k
  | Random k -> Printf.sprintf "rnd%d" k
  | Flippers k -> Printf.sprintf "coin%d" k
  | Holders (b, k) -> Printf.sprintf "hold%dx%d" b k
  | Majority k -> Printf.sprintf "maj%d" k
  | Group g -> Printf.sprintf "grp%d" g

let drop_to_string = function
  | Out -> "out"
  | In -> "in"
  | All -> "all"
  | Flip p -> Printf.sprintf "p%d" p
  | Intra -> "intra"
  | Half -> "half"
  | ToHolders b -> Printf.sprintf "to%d" b

let rec to_string = function
  | Idle -> "idle"
  | Strike (tg, d) ->
      Printf.sprintf "strike(%s,%s)" (target_to_string tg) (drop_to_string d)
  | Seq l -> "seq[" ^ String.concat ";" (List.map to_string l) ^ "]"
  | From (r, b) -> Printf.sprintf "from(%d,%s)" r (to_string b)
  | Until (r, b) -> Printf.sprintf "until(%d,%s)" r (to_string b)
  | Both (a, b) -> Printf.sprintf "both(%s,%s)" (to_string a) (to_string b)
  | Again b -> Printf.sprintf "again(%s)" (to_string b)

let pp ppf t = Fmt.string ppf (to_string t)

exception Parse_error of string

(* Recursive-descent parser over a cursor into the string. *)
let of_string s =
  let pos = ref 0 in
  let len = String.length s in
  let fail fmt =
    Printf.ksprintf
      (fun m -> raise (Parse_error (Printf.sprintf "%s at %d in %S" m !pos s)))
      fmt
  in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let eat c =
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail "expected %c" c
  in
  let lit w =
    let l = String.length w in
    if !pos + l <= len && String.sub s !pos l = w then (pos := !pos + l; true)
    else false
  in
  let int () =
    let start = !pos in
    while !pos < len && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
      incr pos
    done;
    if !pos = start then fail "expected integer";
    int_of_string (String.sub s start (!pos - start))
  in
  let target () =
    if lit "low" then Lowest (int ())
    else if lit "rnd" then Random (int ())
    else if lit "coin" then Flippers (int ())
    else if lit "hold" then begin
      let b = int () in
      eat 'x';
      Holders (b, int ())
    end
    else if lit "maj" then Majority (int ())
    else if lit "grp" then Group (int ())
    else if lit "p" then begin
      let first = int () in
      let l = ref [ first ] in
      while peek () = Some '.' do
        eat '.';
        l := int () :: !l
      done;
      Pids (List.rev !l)
    end
    else fail "expected target"
  in
  let drop () =
    (* "p<int>" must be tried before bare prefixes that share letters *)
    if lit "out" then Out
    else if lit "intra" then Intra
    else if lit "in" then In
    else if lit "all" then All
    else if lit "half" then Half
    else if lit "to" then ToHolders (int ())
    else if lit "p" then Flip (int ())
    else fail "expected drop"
  in
  let rec term () =
    if lit "idle" then Idle
    else if lit "strike(" then begin
      let tg = target () in
      eat ',';
      let d = drop () in
      eat ')';
      Strike (tg, d)
    end
    else if lit "seq[" then begin
      if peek () = Some ']' then (eat ']'; Seq [])
      else begin
        let l = ref [ term () ] in
        while peek () = Some ';' do
          eat ';';
          l := term () :: !l
        done;
        eat ']';
        Seq (List.rev !l)
      end
    end
    else if lit "from(" then begin
      let r = int () in
      eat ',';
      let b = term () in
      eat ')';
      From (r, b)
    end
    else if lit "until(" then begin
      let r = int () in
      eat ',';
      let b = term () in
      eat ')';
      Until (r, b)
    end
    else if lit "both(" then begin
      let a = term () in
      eat ',';
      let b = term () in
      eat ')';
      Both (a, b)
    end
    else if lit "again(" then begin
      let b = term () in
      eat ')';
      Again (b)
    end
    else fail "expected strategy term"
  in
  let t = term () in
  if !pos <> len then fail "trailing garbage";
  t

(* --- shrinking --- *)

let shrink_target = function
  | Pids [] | Pids [ _ ] -> []
  | Pids l -> [ Pids (List.filteri (fun i _ -> i > 0) l); Pids [ List.hd l ] ]
  | Lowest k -> if k <= 1 then [] else [ Lowest 1; Lowest (k / 2) ]
  | Random k -> (if k <= 1 then [] else [ Random 1; Random (k / 2) ]) @ [ Lowest k ]
  | Flippers k -> if k <= 1 then [ Lowest 1 ] else [ Flippers 1; Lowest k ]
  | Holders (b, k) -> (if k <= 1 then [] else [ Holders (b, 1) ]) @ [ Lowest k ]
  | Majority k -> (if k <= 1 then [] else [ Majority 1 ]) @ [ Lowest k ]
  | Group _ -> [ Lowest 2 ]

let shrink_drop = function
  | Out -> []
  | In | All | Intra | Half | ToHolders _ -> [ Out ]
  | Flip p -> [ Out; All ] @ (if p > 50 then [ Flip 50 ] else [])

(** Structurally smaller candidate strategies (every candidate has a
    strictly smaller {!size} or an equal size with simpler leaves), used by
    the greedy counterexample minimiser. *)
let rec shrink = function
  | Idle -> []
  | Strike (tg, d) ->
      Idle
      :: List.map (fun tg' -> Strike (tg', d)) (shrink_target tg)
      @ List.map (fun d' -> Strike (tg, d')) (shrink_drop d)
  | Seq l ->
      Idle :: l
      @ List.mapi (fun i _ -> Seq (List.filteri (fun j _ -> j <> i) l)) l
  | From (r, b) ->
      (Idle :: b :: (if r > 1 then [ From (1, b) ] else []))
      @ List.map (fun b' -> From (r, b')) (shrink b)
  | Until (r, b) ->
      (Idle :: b :: (if r > 1 then [ Until (1, b) ] else []))
      @ List.map (fun b' -> Until (r, b')) (shrink b)
  | Both (a, b) ->
      (Idle :: a :: b
      :: List.map (fun a' -> Both (a', b)) (shrink a))
      @ List.map (fun b' -> Both (a, b')) (shrink b)
  | Again b ->
      (Idle :: b :: List.map (fun b' -> Again b') (shrink b))

(* --- compilation --- *)

(* Per-strike mutable state: the victims it has claimed and whether it has
   already fired (non-[Again] strikes target once). *)
type strike_state = { victims : (int, unit) Hashtbl.t; mutable fired : bool }

type ctx = {
  cfg : Sim.Config.t;
  rand : Sim.Rand.t;  (* the adversary's private stream *)
  view : Sim.View.t;
  budget : int ref;
  (* pids corrupted earlier this round by other strikes of this strategy *)
  newly : (int, unit) Hashtbl.t;
  faults : int list ref;  (* accumulated new_faults of the round, reversed *)
  redo : bool;  (* inside [Again]: re-evaluate targets every round *)
}

let is_live ctx pid =
  (not ctx.view.Sim.View.faulty.(pid)) && not (Hashtbl.mem ctx.newly pid)

let live_pids ctx =
  let l = ref [] in
  for pid = ctx.cfg.Sim.Config.n - 1 downto 0 do
    if is_live ctx pid then l := pid :: !l
  done;
  !l

let take k l =
  let rec go k acc = function
    | [] -> List.rev acc
    | _ when k <= 0 -> List.rev acc
    | x :: tl -> go (k - 1) (x :: acc) tl
  in
  go k [] l

let eval_target ctx = function
  | Pids l ->
      List.filter (fun p -> p >= 0 && p < ctx.cfg.Sim.Config.n) l
  | Lowest k -> take k (live_pids ctx)
  | Random k ->
      let live = Array.of_list (live_pids ctx) in
      Sim.Rand.shuffle ctx.rand live;
      take k (Array.to_list live)
  | Flippers k ->
      let l = ref [] in
      Array.iter
        (fun o ->
          if o.Sim.View.used_randomness && is_live ctx o.pid then
            l := o.pid :: !l)
        ctx.view.obs;
      take k (List.rev !l)
  | Holders (b, k) ->
      let l = ref [] in
      Array.iter
        (fun o ->
          if o.Sim.View.core.candidate = Some b && is_live ctx o.pid then
            l := o.pid :: !l)
        ctx.view.obs;
      take k (List.rev !l)
  | Majority k ->
      let c = [| 0; 0 |] in
      Array.iter
        (fun o ->
          match o.Sim.View.core.candidate with
          | Some b when is_live ctx o.pid -> c.(b) <- c.(b) + 1
          | _ -> ())
        ctx.view.obs;
      let side = if c.(1) >= c.(0) then 1 else 0 in
      let l = ref [] in
      Array.iter
        (fun o ->
          if o.Sim.View.core.candidate = Some side && is_live ctx o.pid then
            l := o.pid :: !l)
        ctx.view.obs;
      take k (List.rev !l)
  | Group g ->
      let n = ctx.cfg.Sim.Config.n in
      let part = Groups.sqrt_partition n in
      let count = Groups.group_count part in
      let lo, hi = Groups.group part (((g mod count) + count) mod count) in
      List.init (((hi - lo) / 2) + 1) (( + ) lo)

(* Corrupt the targets of a strike within the budget; pids that are already
   faulty join the victim set for free (omitting at their edges is legal). *)
let claim ctx st pids =
  List.iter
    (fun pid ->
      if not (Hashtbl.mem st.victims pid) then
        if not (is_live ctx pid) then Hashtbl.replace st.victims pid ()
        else if !(ctx.budget) > 0 then begin
          decr ctx.budget;
          Hashtbl.replace ctx.newly pid ();
          ctx.faults := pid :: !(ctx.faults);
          Hashtbl.replace st.victims pid ()
        end)
    pids

let drop_predicate ctx st d =
  let mem pid = Hashtbl.mem st.victims pid in
  match d with
  | Out -> fun src _ -> mem src
  | In -> fun _ dst -> mem dst
  | All -> fun src dst -> mem src || mem dst
  | Intra -> fun src dst -> mem src && mem dst
  | Flip p ->
      let threshold = float_of_int p /. 100. in
      fun src dst ->
        (mem src || mem dst) && Sim.Rand.float ctx.rand < threshold
  | Half ->
      let half = ctx.cfg.Sim.Config.n / 2 in
      fun src dst -> mem src && dst < half
  | ToHolders b ->
      let obs = ctx.view.Sim.View.obs in
      fun src dst ->
        mem src && obs.(dst).Sim.View.core.candidate = Some b

(** Compile to an engine adversary. The compiled strategy clamps itself to
    the corruption budget and omits only at victim (hence faulty) edges, so
    every plan it emits is legal. *)
let compile ?(name = "strategy") t : Sim.Adversary_intf.t =
  {
    Sim.Adversary_intf.name;
    create =
      (fun cfg rand ->
        (* one mutable state per Strike occurrence, keyed by a preorder
           walk: rebuild the same keying every round *)
        let states : (int, strike_state) Hashtbl.t = Hashtbl.create 16 in
        let state_of key =
          match Hashtbl.find_opt states key with
          | Some s -> s
          | None ->
              let s = { victims = Hashtbl.create 8; fired = false } in
              Hashtbl.add states key s;
              s
        in
        fun view ->
          let ctx =
            {
              cfg;
              rand;
              view;
              budget = ref (cfg.Sim.Config.t_max - view.Sim.View.faults_used);
              newly = Hashtbl.create 8;
              faults = ref [];
              redo = false;
            }
          in
          let round = view.Sim.View.round in
          let preds = ref [] in
          (* Walk the term; [key] numbers Strike occurrences in preorder so
             each keeps its state across rounds. [active] says whether the
             current round falls inside the enclosing windows. *)
          let rec walk ctx key active = function
            | Idle -> key
            | Strike (tg, d) ->
                let st = state_of key in
                if active then begin
                  if ctx.redo || not st.fired then begin
                    st.fired <- true;
                    claim ctx st (eval_target ctx tg)
                  end;
                  if Hashtbl.length st.victims > 0 then
                    preds := drop_predicate ctx st d :: !preds
                end;
                key + 1
            | Seq l ->
                let len = List.length l in
                let active_idx = min (round - 1) (len - 1) in
                List.fold_left
                  (fun (i, key) sub ->
                    (i + 1, walk ctx key (active && i = active_idx) sub))
                  (0, key) l
                |> snd
            | From (r, b) -> walk ctx key (active && round >= r) b
            | Until (r, b) -> walk ctx key (active && round <= r) b
            | Both (a, b) ->
                let key = walk ctx key active a in
                walk ctx key active b
            | Again b -> walk { ctx with redo = true } key active b
          in
          ignore (walk ctx 0 true t);
          let preds = !preds in
          Sim.View.pointwise
            ~new_faults:(List.rev !(ctx.faults))
            ~omit:(fun src dst -> List.exists (fun p -> p src dst) preds));
  }
