(* olint — enforce the checked-in interface policy (olint.policy) over
   the library tree. Exit 0 when clean, 1 on violations, 2 on usage or
   policy errors. See Osiris_analysis.Lint (syntactic R0–R4, R8) and
   Osiris_analysis.Typed (typed R5–R7, R9 and R10, enabled with --typed). *)

let () =
  let policy_path = ref "olint.policy" in
  let roots = ref [] in
  let typed_root = ref "" in
  let format = ref "plain" in
  let spec =
    [
      ( "--policy",
        Arg.Set_string policy_path,
        "FILE policy file (default: olint.policy)" );
      ( "--typed",
        Arg.Set_string typed_root,
        "DIR also run the typed passes over .cmt files under DIR (e.g. \
         _build/default): R5 hot-path allocation, R6 wall-clock ban, R7 \
         counter coverage, R9 callers of exports, R10 readers of labels" );
      ( "--format",
        Arg.Symbol
          ([ "plain"; "github" ], fun s -> format := s),
        " output format: plain (grep-able, default) or github \
         (::error problem-matcher annotations, in addition to plain)" );
    ]
  in
  let usage =
    "olint [--policy FILE] [--typed CMT-DIR] [--format plain|github] \
     [ROOT...]\n\
     Lint OCaml sources against the project ownership policy."
  in
  Arg.parse spec (fun r -> roots := !roots @ [ r ]) usage;
  let policy =
    try Osiris_analysis.Policy.load !policy_path
    with Sys_error msg | Failure msg ->
      Printf.eprintf "olint: cannot load policy: %s\n" msg;
      exit 2
  in
  let roots =
    match (!roots, policy.Osiris_analysis.Policy.scan) with
    | [], [] ->
        Printf.eprintf
          "olint: no roots given and policy has no 'scan' directive\n";
        exit 2
    | [], scan -> scan
    | given, _ -> given
  in
  let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
  if missing <> [] then begin
    Printf.eprintf "olint: no such path: %s\n" (String.concat ", " missing);
    exit 2
  end;
  let violations = Osiris_analysis.Lint.check_tree policy roots in
  let violations =
    if !typed_root = "" then violations
    else if not (Sys.file_exists !typed_root) then begin
      Printf.eprintf "olint: no such --typed root: %s\n" !typed_root;
      exit 2
    end
    else
      violations
      @ Osiris_analysis.Typed.check_tree policy ~cmt_root:!typed_root
  in
  List.iter
    (fun v ->
      Format.printf "%a@." Osiris_analysis.Lint.pp_violation v;
      (* GitHub problem-matcher annotation: surfaces the violation on
         the PR diff when the lint job runs in Actions. *)
      if !format = "github" then
        Printf.printf "::error file=%s,line=%d::[%s] %s\n"
          v.Osiris_analysis.Lint.file v.Osiris_analysis.Lint.line
          v.Osiris_analysis.Lint.rule v.Osiris_analysis.Lint.message)
    violations;
  match violations with
  | [] ->
      Printf.eprintf "olint: clean (%s%s)\n"
        (String.concat " " roots)
        (if !typed_root = "" then "" else " + typed:" ^ !typed_root);
      exit 0
  | vs ->
      Printf.eprintf "olint: %d violation%s\n" (List.length vs)
        (if List.length vs = 1 then "" else "s");
      exit 1
