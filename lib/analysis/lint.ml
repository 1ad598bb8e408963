type violation = { rule : string; file : string; line : int; message : string }

let pp_violation fmt v =
  Format.fprintf fmt "%s:%d: [%s] %s" v.file v.line v.rule v.message

let line_of_loc (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let rec lid_head = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, _) -> lid_head l
  | Longident.Lapply (l, _) -> lid_head l

let rec lid_last = function
  | Longident.Lident s -> s
  | Longident.Ldot (_, s) -> s
  | Longident.Lapply (_, l) -> lid_last l

(* Does this try-with arm match every exception? (Unguarded wildcard or
   variable patterns, possibly under alias/constraint/or.) *)
let rec matches_everything (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> matches_everything p
  | Ppat_or (a, b) -> matches_everything a || matches_everything b
  | _ -> false

let is_exit = function
  | Longident.Lident "exit" -> true
  | Longident.Ldot (Longident.Lident "Stdlib", "exit") -> true
  | _ -> false

(* Stdlib's [min] and [max] compare polymorphically: each call is a
   [caml_lessequal] or [caml_greaterequal] C call, even on ints. *)
let stdlib_min_max = function
  | Longident.Lident (("min" | "max") as f)
  | Longident.Ldot (Longident.Lident "Stdlib", (("min" | "max") as f)) ->
      Some f
  | _ -> None

(* [declare] sees every record label the structure declares. *)
let check_structure policy ~declare file structure =
  let violations = ref [] in
  let add ~loc rule message =
    violations := { rule; file; line = line_of_loc loc; message } :: !violations
  in
  let allowed rule = Policy.exempt policy ~rule ~file in
  let check_obj ~loc lid =
    if lid_head lid = "Obj" && not (allowed "obj") then
      add ~loc "R2"
        (Printf.sprintf "reference to Obj.%s: unsafe casts are banned in \
                         library code"
           (lid_last lid))
  in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_setfield (_, { txt = lid; loc }, _) -> (
        let field = lid_last lid in
        match Policy.owners policy field with
        | None -> ()
        | Some writers ->
            if not (List.exists (fun w -> Policy.path_matches w file) writers)
            then
              add ~loc "R1"
                (Printf.sprintf
                   "field '%s' assigned outside its declared writer (policy \
                    allows: %s)"
                   field
                   (String.concat ", " writers)))
    | Pexp_ident { txt; loc } ->
        check_obj ~loc txt;
        if is_exit txt && not (allowed "exit") then
          add ~loc "R3"
            "call to exit in library code can swallow invariant violations";
        Option.iter
          (fun f ->
            add ~loc "R8"
              (Printf.sprintf
                 "Stdlib.%s compares polymorphically (a C call even on \
                  ints): use Int.%s, or write the float compare out"
                 f f))
          (stdlib_min_max txt)
    | Pexp_try (_, cases) ->
        if not (allowed "catchall") then
          List.iter
            (fun (c : Parsetree.case) ->
              if c.pc_guard = None && matches_everything c.pc_lhs then
                add ~loc:c.pc_lhs.ppat_loc "R3"
                  "catch-all exception handler (try ... with _): name the \
                   exceptions instead")
            cases
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let module_expr (it : Ast_iterator.iterator) (m : Parsetree.module_expr) =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } -> check_obj ~loc txt
    | _ -> ());
    Ast_iterator.default_iterator.module_expr it m
  in
  let type_kind (it : Ast_iterator.iterator) (k : Parsetree.type_kind) =
    (match k with
    | Ptype_record lds ->
        List.iter
          (fun (ld : Parsetree.label_declaration) -> declare ld.pld_name.txt)
          lds
    | _ -> ());
    Ast_iterator.default_iterator.type_kind it k
  in
  let iterator =
    { Ast_iterator.default_iterator with expr; module_expr; type_kind }
  in
  iterator.structure iterator structure;
  List.rev !violations

let parse_impl file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_string (really_input_string ic (in_channel_length ic)) in
      Location.init lexbuf file;
      Parse.implementation lexbuf)

let lint_file policy ~declare file =
  match parse_impl file with
  | structure -> check_structure policy ~declare file structure
  | exception Syntaxerr.Error err ->
      let loc = Syntaxerr.location_of_error err in
      [
        {
          rule = "R0";
          file;
          line = line_of_loc loc;
          message = "syntax error: file does not parse";
        };
      ]
  | exception Lexer.Error (_, loc) ->
      [ { rule = "R0"; file; line = line_of_loc loc; message = "lexer error" } ]

let check_file policy file = lint_file policy ~declare:ignore file

let rec walk dir =
  if not (Sys.is_directory dir) then if Filename.check_suffix dir ".ml" then [ dir ] else []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
           if String.length entry > 0 && (entry.[0] = '_' || entry.[0] = '.')
           then []
           else walk (Filename.concat dir entry))

let check_missing_mli policy root =
  List.filter_map
    (fun ml ->
      if Sys.file_exists (ml ^ "i") || Policy.exempt policy ~rule:"no-mli" ~file:ml
      then None
      else
        Some
          {
            rule = "R4";
            file = ml;
            line = 1;
            message =
              "module has no .mli: the ownership rules rely on explicit \
               interfaces";
          })
    (walk root)

let check_tree policy roots =
  let by_file v = (v.file, v.line, v.rule) in
  let declared = Hashtbl.create 256 in
  let declare l = Hashtbl.replace declared l () in
  let vs =
    List.concat_map
      (fun root ->
        List.concat_map (lint_file policy ~declare) (walk root)
        @ check_missing_mli policy root)
      roots
  in
  (* An [own] or [shared] entry whose field no linted record declares
     guards nothing: a stale entry, as a stale [hot] entry is for R5. *)
  let stale kind field =
    if Hashtbl.mem declared field then None
    else
      Some
        {
          rule = "R1";
          file = String.concat " " roots;
          line = 1;
          message =
            Printf.sprintf
              "%s entry '%s': no record under the linted roots declares this \
               field (stale policy entry); delete it"
              kind field;
        }
  in
  vs
  @ List.filter_map (fun (f, _) -> stale "own" f) policy.Policy.own
  @ List.filter_map (stale "shared") policy.Policy.shared
  |> List.sort (fun a b -> compare (by_file a) (by_file b))
