(* Prints an OCaml module binding [digest] to the MD5 hex digest of the
   files named on the command line, each file's path and bytes in path
   order. lib/cache/dune runs it over the sources that decide a run's
   result, so Cache.fingerprint follows any edit to them. *)

let () =
  let files = List.sort compare (List.tl (Array.to_list Sys.argv)) in
  let buf = Buffer.create 65536 in
  List.iter
    (fun path ->
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      Buffer.add_string buf
        (Printf.sprintf "%s\000%d\000%s" path (String.length bytes) bytes))
    files;
  Printf.printf "let digest = %S\n"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
