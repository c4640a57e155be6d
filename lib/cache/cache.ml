(* Content-addressed result store: append-only index + one object file
   per payload. Digests use stdlib MD5 (Digest) — the cache is a
   memoization layer over a trusted local directory, not a security
   boundary; what matters is that the address is a pure function of
   (fingerprint, key). *)

let fingerprint = "consensus-cache-v1"

module Stats = struct
  type t = { mutable hits : int; mutable misses : int; mutable writes : int }

  let zero () = { hits = 0; misses = 0; writes = 0 }

  let pp ppf s =
    Fmt.pf ppf "hits=%d misses=%d writes=%d" s.hits s.misses s.writes
end

module Store = struct
  type t = {
    dir : string;
    fingerprint : string;
    index : (string, int) Hashtbl.t; (* hex digest -> payload size *)
    oc : out_channel; (* index, append mode, flushed per entry *)
    mutable corrupt : int;
    stats : Stats.t;
    lock : Mutex.t;
  }

  let objects_dir dir = Filename.concat dir "objects"
  let index_path dir = Filename.concat dir "index"
  let object_path t hex = Filename.concat (objects_dir t.dir) hex

  let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

  let is_hex s =
    String.length s > 0
    && String.for_all
         (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
         s

  (* Replay the index. A well-formed line is "hex TAB size"; anything
     else — torn final line, garbage bytes, bad size — is skipped and
     counted. Duplicate digests are fine (lookup self-repair re-appends
     after rewriting an object); latest wins. Returns the corrupt count
     and whether the file ends mid-line. *)
  let load_index path index =
    if not (Sys.file_exists path) then (0, false)
    else begin
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let corrupt = ref 0 in
      let parse line =
        match String.index_opt line '\t' with
        | Some i
          when i > 0
               && i < String.length line - 1
               && not (String.contains_from line (i + 1) '\t') -> (
            let hex = String.sub line 0 i in
            let size = String.sub line (i + 1) (String.length line - i - 1) in
            match int_of_string_opt size with
            | Some sz when sz >= 0 && is_hex hex -> Hashtbl.replace index hex sz
            | _ -> incr corrupt)
        | _ -> incr corrupt
      in
      (* the element after the last newline is "" unless the file ends
         mid-line *)
      let rec go = function
        | [] | [ "" ] -> false
        | [ torn ] ->
            parse torn;
            true
        | line :: rest ->
            parse line;
            go rest
      in
      let torn = go (String.split_on_char '\n' text) in
      (!corrupt, torn)
    end

  let open_ ?(fingerprint = fingerprint) ~dir () =
    ensure_dir dir;
    ensure_dir (objects_dir dir);
    let index = Hashtbl.create 256 in
    let corrupt, torn = load_index (index_path dir) index in
    let oc =
      open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644
        (index_path dir)
    in
    (* a torn final line has no newline: end it, or the next appended
       entry would be glued onto the fragment and lost on reopen *)
    if torn then begin
      output_char oc '\n';
      flush oc
    end;
    {
      dir;
      fingerprint;
      index;
      oc;
      corrupt;
      stats = Stats.zero ();
      lock = Mutex.create ();
    }

  let digest_key t key =
    Digest.to_hex (Digest.string (t.fingerprint ^ "\x00" ^ key))

  let read_object path expected_size =
    match open_in_bin path with
    | exception _ -> None
    | ic ->
        let len = in_channel_length ic in
        let payload =
          if len <> expected_size then None
          else match really_input_string ic len with
            | s -> Some s
            | exception _ -> None
        in
        close_in_noerr ic;
        payload

  (* The caller's decoder is the validity check: a payload it rejects is
     as corrupt as a torn one — same-length garbage passes the size check
     — so it is dropped from the index (the next add rewrites it) and
     counted as a miss, never as a hit. *)
  let lookup t ~decode key =
    let hex = digest_key t key in
    Mutex.lock t.lock;
    let r =
      match Hashtbl.find_opt t.index hex with
      | None -> None
      | Some size -> (
          match
            Option.bind (read_object (object_path t hex) size) (fun p ->
                try decode p with _ -> None)
          with
          | Some v -> Some v
          | None ->
              Hashtbl.remove t.index hex;
              t.corrupt <- t.corrupt + 1;
              None)
    in
    (match r with
    | Some _ -> t.stats.Stats.hits <- t.stats.Stats.hits + 1
    | None -> t.stats.Stats.misses <- t.stats.Stats.misses + 1);
    Mutex.unlock t.lock;
    r

  let add t ~key payload =
    let hex = digest_key t key in
    Mutex.lock t.lock;
    (try
       if not (Hashtbl.mem t.index hex) then begin
         (* object first (atomic via rename), index line after: a crash
            between the two leaves an unreachable object, never an index
            line pointing at nothing it can't detect *)
         let path = object_path t hex in
         let tmp =
           Printf.sprintf "%s.tmp.%d" path
             (Domain.self () :> int)
         in
         let oc = open_out_bin tmp in
         output_string oc payload;
         close_out oc;
         Sys.rename tmp path;
         Printf.fprintf t.oc "%s\t%d\n" hex (String.length payload);
         flush t.oc;
         Hashtbl.replace t.index hex (String.length payload);
         t.stats.Stats.writes <- t.stats.Stats.writes + 1
       end
     with e ->
       Mutex.unlock t.lock;
       raise e);
    Mutex.unlock t.lock

  let entries t = Hashtbl.length t.index
  let corrupt t = t.corrupt

  (* a snapshot, not the live record: callers diff two calls to get
     per-phase deltas, which aliasing would silently zero out *)
  let stats t =
    Mutex.lock t.lock;
    let s =
      {
        Stats.hits = t.stats.Stats.hits;
        misses = t.stats.Stats.misses;
        writes = t.stats.Stats.writes;
      }
    in
    Mutex.unlock t.lock;
    s
  let dir t = t.dir
  let close t = close_out_noerr t.oc
end
