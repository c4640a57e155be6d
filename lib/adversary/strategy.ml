(** A compositional, serializable adversary-strategy algebra.

    A strategy is a first-order term that can be generated, shrunk,
    printed and re-parsed for replay, and compiled to a legal
    {!Sim.Adversary_intf.t}. It is the one implementation of every
    structured adversary: the fuzzing harness searches the term space,
    and [crash_schedule], [staggered_crash], [group_killer], [eclipse]
    and [random] ([random_omission]) are fixed terms. A round whose only
    strike with victims is a [Flip] compiles to the predicate a
    hand-written coin adversary would be: two byte tests, then one coin.

    Legality is by construction: a compiled strike keeps a private victim
    set, only ever corrupts within the remaining budget, and only omits
    messages incident to its victims (who are faulty by then), so the
    engine's {!Sim.Engine.Illegal_plan} can never fire. *)

(* The constructors are documented in strategy.mli. *)

type target =
  | Pids of int list
  | Lowest of int
  | Random of int
  | Flippers of int
  | Holders of int * int
  | Majority of int
  | Group of int
  | Senders of int

type drop =
  | Out | In | All | Flip of int | Intra | Half
  | ToHolders of int | Local | Link of int

type t =
  | Idle
  | Strike of target * drop
  | Seq of t list
  | From of int * t
  | Until of int * t
  | Both of t * t
  | Again of t

(* --- structural helpers --- *)

(* Leaf weights are chosen so that every [shrink_target]/[shrink_drop]
   candidate is strictly lighter, which makes [size] (and hence the
   scenario measure) strictly decrease along every shrink step. *)
let target_weight = function
  | Pids l -> max 1 (List.length l)
  | Lowest k -> max 1 k
  | Random k | Flippers k | Holders (_, k) | Majority k -> max 1 k + 2
  | Group _ | Senders _ -> 3

let drop_weight = function
  | Out -> 0
  | In | All | Intra | Half | ToHolders _ | Local | Link _ -> 1
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
    | Strike (_, (In | Flip _ | Intra | Half | ToHolders _ | Local | Link _))
      ->
        false
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
              | "hold" bit "x" int | "maj" int | "grp" int | "snd" int
     drop   ::= "out" | "in" | "all" | "p" int | "intra" | "half"
              | "to" bit | "local" | "link" int *)

let target_to_string = function
  | Pids l -> "p" ^ String.concat "." (List.map string_of_int l)
  | Lowest k -> Printf.sprintf "low%d" k
  | Random k -> Printf.sprintf "rnd%d" k
  | Flippers k -> Printf.sprintf "coin%d" k
  | Holders (b, k) -> Printf.sprintf "hold%dx%d" b k
  | Majority k -> Printf.sprintf "maj%d" k
  | Group g -> Printf.sprintf "grp%d" g
  | Senders v -> Printf.sprintf "snd%d" v

let drop_to_string = function
  | Out -> "out"
  | In -> "in"
  | All -> "all"
  | Flip p -> Printf.sprintf "p%d" p
  | Intra -> "intra"
  | Half -> "half"
  | ToHolders b -> Printf.sprintf "to%d" b
  | Local -> "local"
  | Link v -> Printf.sprintf "link%d" v

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
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some i -> i
    | None -> fail "integer out of range"
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
    else if lit "snd" then Senders (int ())
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
    else if lit "local" then Local
    else if lit "link" then Link (int ())
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
  | Senders _ -> [ Lowest 1 ]

let shrink_drop = function
  | Out -> []
  | In | All | Intra | Half | ToHolders _ | Local | Link _ -> [ Out ]
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

(* --- compilation ---

   A compiled strategy keeps one state per [Strike] occurrence, numbered
   in preorder, and states each round's omissions as per-sender masks:
   [silent] marks the victims of the active Out and All strikes, and the
   other drops give a sender masks of their own, OR-ed together when
   there are several. A round in which a [Flip] strike has victims is a
   predicate instead: its coin per message is drawn in the engine's
   message order, and that draw order is observable. Every strike with
   victims is asked, so a message at the victims of two [Flip] strikes
   may draw two coins. Every n-byte buffer is allocated once, when the
   adversary is created. *)

type state = {
  target : target;
  drop : drop;
  victims : Bytes.t;  (* one byte per pid *)
  mutable claimed : int;
  mutable fired : bool;  (* non-[Again] strikes target once *)
  mutable active : bool;  (* inside all its windows this round *)
  aux : Bytes.t;
      (* [Half]: the lower half of the pids; [ToHolders b]: this round's
         holders of [b]; [Link v]: [v]; [Local]: the members of every
         group holding a victim; otherwise empty *)
  mutable groups : int;  (* [Local]: groups holding a victim *)
  coin : float;  (* [Flip p]: p / 100, the chance a coin omits *)
}

let state n (target, drop) =
  let marked f = Bytes.init n (fun p -> if f p then '\001' else '\000') in
  let aux =
    match drop with
    | Half -> marked (fun p -> p < n / 2)
    | Link v -> marked (( = ) v)
    | ToHolders _ | Local -> Bytes.make n '\000'
    | Out | In | All | Flip _ | Intra -> Bytes.empty
  in
  let coin = match drop with Flip p -> float_of_int p /. 100. | _ -> 0. in
  let victims = Bytes.make n '\000' and claimed = 0 and groups = 0 in
  { target; drop; victims; claimed; fired = false; active = false; aux; groups;
    coin }

(* The strikes of [t] in preorder. *)
let strikes_of t =
  let rec go acc = function
    | Idle -> acc
    | Strike (tg, d) -> (tg, d) :: acc
    | Seq l -> List.fold_left go acc l
    | From (_, b) | Until (_, b) | Again b -> go acc b
    | Both (a, b) -> go (go acc a) b
  in
  List.rev (go [] t)

let victim st p = Bytes.get st.victims p <> '\000'

(** Compile to an engine adversary. The compiled strategy clamps itself to
    the corruption budget and omits only at victim (hence faulty) edges, so
    every plan it emits is legal. *)
let compile ?(name = "strategy") t : Sim.Adversary_intf.t =
  let create cfg rand =
    let n = cfg.Sim.Config.n and gs = Groups.sqrt_size cfg.Sim.Config.n in
    let strikes = Array.of_list (List.map (state n) (strikes_of t)) in
    (* [faults]: the pids corrupted earlier this round; [silent] is
       rebuilt when a claim or a window change makes it [dirty] *)
    let silent = Bytes.make n '\000' in
    let budget = ref 0 and faults = ref [] and dirty = ref false in
    let is_live (view : Sim.View.t) pid =
      (not view.faulty.(pid)) && not (List.mem pid !faults)
    in
    (* Corrupt [pid] within the budget; a pid that is already faulty joins
       the victim set for free (omitting at its edges is legal). *)
    let claim view st pid =
      let live = is_live view pid in
      if Bytes.get st.victims pid = '\000' && ((not live) || !budget > 0)
      then begin
        if live then begin
          decr budget;
          faults := pid :: !faults
        end;
        Bytes.set st.victims pid '\001';
        st.claimed <- st.claimed + 1;
        dirty := true
      end
    in
    (* [f i pid] for the first [k] live pids, ascending, whose observation
       passes [keep], [i] counting from 0; returns how many there were *)
    let live_pids (view : Sim.View.t) k keep f =
      let found = ref 0 and pid = ref 0 in
      while !found < k && !pid < n do
        if keep view.obs.(!pid) && is_live view !pid then begin
          f !found !pid;
          incr found
        end;
        incr pid
      done;
      !found
    in
    let count view keep = live_pids view n keep (fun _ _ -> ()) in
    (* A live pid is never a victim yet, so each claim costs one unit of
       budget: the walk stops after min(k, budget) of them. *)
    let claim_first view st k keep =
      ignore (live_pids view (min k !budget) keep (fun _ p -> claim view st p))
    in
    let all _ = true and holds b o = o.Sim.View.core.candidate = Some b in
    let strike (view : Sim.View.t) st =
      match st.target with
      | Pids l -> List.iter (fun p -> if p >= 0 && p < n then claim view st p) l
      | Lowest k -> claim_first view st k all
      | Random k ->
          (* shuffle every live pid, ascending, whatever k and the budget:
             the draws do not depend on how many are claimed *)
          let live = Array.make (count view all) 0 in
          ignore (live_pids view n all (Array.set live));
          Sim.Rand.shuffle rand live;
          for i = 0 to min k (min !budget (Array.length live)) - 1 do
            claim view st live.(i)
          done
      | Flippers k -> claim_first view st k (fun o -> o.used_randomness)
      | Holders (b, k) -> claim_first view st k (holds b)
      | Majority k ->
          let b =
            if count view (holds 1) >= count view (holds 0) then 1 else 0
          in
          claim_first view st k (holds b)
      | Group g ->
          let part = Groups.sqrt_partition n in
          let count = Groups.group_count part in
          let lo, hi = Groups.group part (((g mod count) + count) mod count) in
          for p = lo to lo + ((hi - lo) / 2) do
            claim view st p
          done
      | Senders v ->
          (* ascending; a sender once per message, its repeats skipped *)
          view.iter_envelopes (fun src dst _ _ ->
              if dst = v && src <> v && is_live view src then
                claim view st src)
    in
    let rebuild () =
      Bytes.fill silent 0 n '\000';
      Array.iter
        (fun st ->
          let silences = st.active && (st.drop = Out || st.drop = All) in
          let local = st.drop = Local in
          for p = 0 to n - 1 do
            if Bytes.get st.victims p <> '\000' then begin
              if silences then Bytes.set silent p '\001';
              let lo = p / gs * gs in
              if local && Bytes.get st.aux lo = '\000' then begin
                st.groups <- st.groups + 1;
                Bytes.fill st.aux lo (min n (lo + gs) - lo) '\001'
              end
            end
          done)
        strikes
    in
    (* This round's active strikes with victims and a mask for some
       senders other than [Omit_all]. *)
    let shaped =
      Array.of_list
        (List.filter
           (fun st -> match st.drop with Out | Flip _ -> false | _ -> true)
           (Array.to_list strikes))
    in
    let n_shaped = ref 0 in
    let shape st =
      shaped.(!n_shaped) <- st;
      incr n_shaped
    in
    (* [f buf lo hi] for each mask of [src]: omit towards the marked
       bytes of [buf] within [lo .. hi] *)
    let each_part src f =
      for i = 0 to !n_shaped - 1 do
        let st = shaped.(i) in
        let victim = Bytes.get st.victims src <> '\000' in
        match st.drop with
        | In | All -> f st.victims 0 (n - 1)
        | Intra -> if victim then f st.victims 0 (n - 1)
        | Half | ToHolders _ -> if victim then f st.aux 0 (n - 1)
        | Link v ->
            if victim then f st.aux 0 (n - 1);
            if src = v then f st.victims 0 (n - 1)
        | Local ->
            (* a victim's own group, or the victims of the sender's
               group; with one group hit, the whole buffer is that *)
            if Bytes.get st.aux src <> '\000' then begin
              let buf = if victim then st.aux else st.victims in
              let lo = if st.groups = 1 then 0 else src / gs * gs in
              f buf lo (if st.groups = 1 then n - 1 else min n (lo + gs) - 1)
            end
        | Out | Flip _ -> ()
      done
    in
    let parts = ref 0 and lone = ref Bytes.empty in
    let count_part buf lo hi =
      incr parts;
      lone := if lo = 0 && hi = n - 1 then buf else Bytes.empty
    in
    (* Several masks are OR-ed into [scratch], kept for the sender it was
       built for: the general route asks once per message. *)
    let scratch =
      if Array.length shaped = 0 then Bytes.empty else Bytes.make n '\000'
    in
    let scratch_src = ref (-1) in
    let or_part buf lo hi =
      for p = lo to hi do
        if Bytes.get buf p <> '\000' then Bytes.set scratch p '\001'
      done
    in
    let verdict src =
      if Bytes.get silent src <> '\000' then Sim.View.Omit_all
      else if !n_shaped = 0 then Deliver_all
      else if !scratch_src = src then Omit_mask scratch
      else begin
        parts := 0;
        each_part src count_part;
        if !parts = 0 then Deliver_all
        else if !parts = 1 && Bytes.length !lone > 0 then Omit_mask !lone
        else begin
          Bytes.fill scratch 0 n '\000';
          each_part src or_part;
          scratch_src := src;
          Omit_mask scratch
        end
      end
    in
    (* No closure per message: [victim] is a plain function, and a Flip
       round's predicate walks its strikes with a loop. *)
    let drops st src dst =
      match st.drop with
      | Out -> victim st src
      | In -> victim st dst
      | All -> victim st src || victim st dst
      | Intra -> victim st src && victim st dst
      | Flip _ ->
          (victim st src || victim st dst) && Sim.Rand.chance rand st.coin
      | Half | ToHolders _ -> victim st src && Bytes.get st.aux dst <> '\000'
      | Local -> (victim st src || victim st dst) && src / gs = dst / gs
      | Link v -> (victim st src && dst = v) || (src = v && victim st dst)
    in
    (* [key] numbers the strikes in preorder; [on] says whether the
       round falls inside the enclosing windows *)
    let rec walk (view : Sim.View.t) key ~on ~redo = function
      | Idle -> key
      | Strike _ ->
          let st = strikes.(key) in
          if st.active <> on then begin
            st.active <- on;
            dirty := true
          end;
          if on && (redo || not st.fired) then begin
            st.fired <- true;
            strike view st
          end;
          key + 1
      | Seq l ->
          let at = min (view.round - 1) (List.length l - 1) in
          List.fold_left
            (fun (i, key) sub ->
              (i + 1, walk view key ~on:(on && i = at) ~redo sub))
            (0, key) l
          |> snd
      | From (r, b) -> walk view key ~on:(on && view.round >= r) ~redo b
      | Until (r, b) -> walk view key ~on:(on && view.round <= r) ~redo b
      | Both (a, b) -> walk view (walk view key ~on ~redo a) ~on ~redo b
      | Again b -> walk view key ~on ~redo:true b
    in
    fun (view : Sim.View.t) ->
      budget := cfg.Sim.Config.t_max - view.faults_used;
      faults := [];
      ignore (walk view 0 ~on:true ~redo:false t);
      if !dirty then begin
        rebuild ();
        dirty := false
      end;
      n_shaped := 0;
      scratch_src := -1;
      let asked = ref 0 and flip = ref (-1) in
      for i = 0 to Array.length strikes - 1 do
        let st = strikes.(i) in
        if st.active && st.claimed > 0 then begin
          incr asked;
          match st.drop with
          | Out -> ()
          | Flip _ -> flip := i
          | ToHolders b ->
              (* the view is only valid during this call *)
              Array.iter
                (fun o ->
                  Bytes.set st.aux o.Sim.View.pid
                    (if o.core.candidate = Some b then '\001' else '\000'))
                view.obs;
              shape st
          | In | All | Intra | Half | Local | Link _ -> shape st
        end
      done;
      let new_faults = List.rev !faults in
      if !flip < 0 then { Sim.View.new_faults; omit = Masks verdict }
      else if !asked = 1 then
        (* the one strike asked is a Flip: two byte tests, then its coin *)
        let { victims; coin; _ } = strikes.(!flip) in
        let omit src dst =
          (Bytes.get victims src <> '\000' || Bytes.get victims dst <> '\000')
          && Sim.Rand.chance rand coin
        in
        { new_faults; omit = Predicate omit }
      else
        (* every strike with victims, asked in reverse preorder until one
           omits, so the coins are drawn as they always were *)
        let asked =
          Array.of_list
            (Array.fold_left
               (fun l st -> if st.active && st.claimed > 0 then st :: l else l)
               [] strikes)
        in
        let k = Array.length asked in
        {
          new_faults;
          omit =
            Predicate
              (fun src dst ->
                let i = ref 0 in
                while !i < k && not (drops asked.(!i) src dst) do
                  incr i
                done;
                !i < k);
        }
  in
  { Sim.Adversary_intf.name; create }
