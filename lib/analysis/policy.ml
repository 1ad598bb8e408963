type t = {
  scan : string list;
  own : (string * string list) list;
  shared : string list;
  accessors : string list;
  allow : (string * string list) list;
  hot : (string * string) list;
  alloc_free : string list;
  wall_clock : string list;
  coverage_fns : string list;
  uncovered : string list;
}

let empty =
  {
    scan = [];
    own = [];
    shared = [];
    accessors = [];
    allow = [];
    hot = [];
    alloc_free = [];
    wall_clock = [];
    coverage_fns = [];
    uncovered = [];
  }

let add_assoc l key v =
  match List.assoc_opt key l with
  | Some vs -> (key, vs @ [ v ]) :: List.remove_assoc key l
  | None -> l @ [ (key, [ v ]) ]

(* The exemption rule keys R2/R3/R4 understand; anything else in an
   'allow' line is a typo that would silently exempt nothing. *)
let allow_keys = [ "obj"; "catchall"; "exit"; "no-mli" ]

let of_string s =
  let lines = String.split_on_char '\n' s in
  let parse (n, t) line =
    let code, comment =
      match String.index_opt line '#' with
      | Some i ->
          ( String.sub line 0 i,
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          )
      | None -> (line, "")
    in
    let words =
      List.filter
        (fun w -> w <> "")
        (String.split_on_char ' ' (String.trim code))
    in
    (* Exemption directives carry a trailing justification comment or
       they do not parse: an unexplained escape hatch is exactly the
       kind of reviewed-not-checked convention this file exists to
       kill. *)
    let justified directive =
      if comment = "" then
        failwith
          (Printf.sprintf
             "olint policy line %d: '%s' exemption needs a trailing '# why' \
              justification comment"
             n directive)
    in
    let t =
      match words with
      | [] -> t
      | [ "scan"; dir ] -> { t with scan = t.scan @ [ dir ] }
      | "own" :: field :: (_ :: _ as files) ->
          {
            t with
            own = List.fold_left (fun o f -> add_assoc o field f) t.own files;
          }
      | [ "shared"; field ] -> { t with shared = t.shared @ [ field ] }
      | [ "accessor"; file ] -> { t with accessors = t.accessors @ [ file ] }
      | [ "allow"; rule; file ] ->
          if not (List.mem rule allow_keys) then
            failwith
              (Printf.sprintf
                 "olint policy line %d: unknown 'allow' rule key '%s' (valid: \
                  %s)"
                 n rule
                 (String.concat " " allow_keys));
          justified "allow";
          { t with allow = add_assoc t.allow rule file }
      | [ "hot"; spec ] -> (
          match String.index_opt spec ':' with
          | Some i when i > 0 && i < String.length spec - 1 ->
              let file = String.sub spec 0 i in
              let fn = String.sub spec (i + 1) (String.length spec - i - 1) in
              { t with hot = t.hot @ [ (file, fn) ] }
          | _ ->
              failwith
                (Printf.sprintf
                   "olint policy line %d: 'hot' wants <file>:<function>" n))
      | [ "alloc-free"; name ] ->
          justified "alloc-free";
          { t with alloc_free = t.alloc_free @ [ name ] }
      | [ "wall-clock"; name ] ->
          { t with wall_clock = t.wall_clock @ [ name ] }
      | [ "coverage-fn"; name ] ->
          { t with coverage_fns = t.coverage_fns @ [ name ] }
      | [ "uncovered"; name ] ->
          justified "uncovered";
          { t with uncovered = t.uncovered @ [ name ] }
      | (( "scan" | "own" | "shared" | "accessor" | "allow" | "hot"
         | "alloc-free" | "wall-clock" | "coverage-fn" | "uncovered" ) as w)
        :: _ ->
          failwith
            (Printf.sprintf "olint policy line %d: malformed '%s' directive" n
               w)
      | w :: _ ->
          failwith
            (Printf.sprintf "olint policy line %d: unknown directive '%s'" n w)
    in
    (n + 1, t)
  in
  snd (List.fold_left parse (1, empty) lines)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* Compare by whole trailing path components: "lib/board/desc_queue.ml"
   matches "/root/repo/lib/board/desc_queue.ml" and "desc_queue.ml", but
   not "my_desc_queue.ml". *)
let path_matches policy_path file =
  let split p =
    List.filter (fun c -> c <> "" && c <> ".") (String.split_on_char '/' p)
  in
  let rec is_suffix suf l =
    if List.length l < List.length suf then false
    else if List.length l = List.length suf then suf = l
    else match l with [] -> false | _ :: tl -> is_suffix suf tl
  in
  is_suffix (split policy_path) (split file)

let owners t field =
  match List.assoc_opt field t.own with
  | Some files -> Some files
  | None -> if List.mem field t.shared then Some t.accessors else None

let exempt t ~rule ~file =
  match List.assoc_opt rule t.allow with
  | None -> false
  | Some files -> List.exists (fun p -> path_matches p file) files

let uncovered_ok t name = List.mem name t.uncovered
