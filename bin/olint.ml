(* olint — enforce the checked-in interface policy (olint.policy) over
   the policy's scan roots, read from the .cmt and .cmti files of a
   built tree. Exit 0 when clean, 1 on violations, 2 on usage or policy
   errors. See Osiris_analysis.Typed (R1–R10). *)

module Typed = Osiris_analysis.Typed

let () =
  let policy_path = ref "olint.policy" in
  let build_root = ref "" in
  let format = ref "plain" in
  let spec =
    [
      ( "--policy",
        Arg.Set_string policy_path,
        "FILE policy file (default: olint.policy)" );
      ( "--format",
        Arg.Symbol ([ "plain"; "github" ], fun s -> format := s),
        " output format: plain (grep-able, default) or github \
         (::error problem-matcher annotations, in addition to plain)" );
    ]
  in
  let usage =
    "olint [--policy FILE] [--format plain|github] BUILD-ROOT\n\
     Lint the policy's scan roots, read from the .cmt files under \
     BUILD-ROOT (e.g. _build/default), against the project policy."
  in
  Arg.parse spec
    (fun r ->
      if !build_root <> "" then raise (Arg.Bad "one build root only");
      build_root := r)
    usage;
  if !build_root = "" then begin
    Arg.usage spec usage;
    exit 2
  end;
  if not (Sys.file_exists !build_root) then begin
    Printf.eprintf "olint: no such build root: %s\n" !build_root;
    exit 2
  end;
  let policy =
    try Osiris_analysis.Policy.load !policy_path
    with Sys_error msg | Failure msg ->
      Printf.eprintf "olint: cannot load policy: %s\n" msg;
      exit 2
  in
  let scan = policy.Osiris_analysis.Policy.scan in
  if scan = [] then begin
    Printf.eprintf "olint: policy has no 'scan' directive\n";
    exit 2
  end;
  let violations = Typed.check_tree policy ~cmt_root:!build_root in
  List.iter
    (fun (v : Typed.violation) ->
      Format.printf "%a@." Typed.pp_violation v;
      (* GitHub problem-matcher annotation: surfaces the violation on
         the PR diff when the lint job runs in Actions. *)
      if !format = "github" then
        Printf.printf "::error file=%s,line=%d::[%s] %s\n" v.file v.line
          v.rule v.message)
    violations;
  match violations with
  | [] ->
      Printf.eprintf "olint: clean (%s in %s)\n" (String.concat " " scan)
        !build_root;
      exit 0
  | vs ->
      Printf.eprintf "olint: %d violation%s\n" (List.length vs)
        (if List.length vs = 1 then "" else "s");
      exit 1
