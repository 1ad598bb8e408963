(* olint's rules, all on the compiler's .cmt and .cmti artifacts.

   - R1: is each policy-owned record field assigned only by its writer?
   - R2: does any scanned unit refer to [Obj]?
   - R3: does any scanned unit catch every exception, or call [exit]?
   - R4: does every scanned unit ship an interface?
   - R5: is this hot-path function transitively allocation-free?
   - R6: does any scanned unit refer to a wall-clock function?
   - R7: is every registered metrics counter read by a conservation or
     invariant check, and does every exemption name a counter?
   - R8: does any scanned unit call Stdlib's polymorphic [min]/[max]?
   - R9: does every exported value have a caller in another unit, and
     does some call pass each of its optional parameters?
   - R10: does some unit read every label of an exported record type,
     and assign every one that is mutable?

   The input is the set of .cmt files the normal dune build already
   produces (dune always compiles with -bin-annot), so the passes see
   exactly what the compiler saw: resolved paths through module
   aliases, inferred types for boxing decisions, and attributes for the
   escape hatches. Nothing here re-runs the typechecker — a .cmt is
   loaded, walked, and dropped. *)

type violation = { rule : string; file : string; line : int; message : string }

let pp_violation fmt v =
  Format.fprintf fmt "%s:%d: [%s] %s" v.file v.line v.rule v.message

(* ------------------------------------------------------------------ *)
(* Module index: every loaded implementation .cmt, addressable by the
   short module name so cross-module calls resolve. *)

type modul = {
  m_modname : string;  (* "Osiris_sim__Wheel" *)
  m_key : string;  (* "Wheel" *)
  m_source : string;  (* "lib/sim/wheel.ml" *)
  m_fns : (string * Typedtree.expression) list;  (* top-level lets *)
  m_aliases : (string * string list) list;
      (* local [module M = Path] bindings, name → target path elements *)
  m_structure : Typedtree.structure;
}

(* "Osiris_sim__Wheel" → "Wheel"; "Stdlib__Hashtbl" → "Hashtbl";
   "Osiris_sim__" → "" (the wrapper alias module itself). *)
let strip_lib_prefix name =
  let n = String.length name in
  let rec last_sep i best =
    if i + 1 >= n then best
    else if name.[i] = '_' && name.[i + 1] = '_' then last_sep (i + 1) (Some i)
    else last_sep (i + 1) best
  in
  match last_sep 0 None with
  | Some i when i + 2 < n -> String.sub name (i + 2) (n - i - 2)
  | Some _ -> "" (* trailing "__": a wrapper alias module *)
  | None -> name

let rec path_elems (p : Path.t) =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_elems p @ [ s ]
  | Path.Papply (a, _) -> path_elems a
  | _ -> []

let line_of_loc (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

(* Top-level value bindings of a structure: the functions the analyses
   can resolve calls into. *)
let index_structure (str : Typedtree.structure) =
  let fns = ref [] and aliases = ref [] in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match vb.vb_pat.pat_desc with
              | Typedtree.Tpat_var (id, _) ->
                  fns := (Ident.name id, vb.vb_expr) :: !fns
              | _ -> ())
            vbs
      | Typedtree.Tstr_module mb -> (
          match (mb.mb_id, mb.mb_expr.mod_desc) with
          | Some id, Typedtree.Tmod_ident (path, _) ->
              aliases := (Ident.name id, path_elems path) :: !aliases
          | _ -> ())
      | _ -> ())
    str.str_items;
  (List.rev !fns, List.rev !aliases)

let load_cmt file =
  match Cmt_format.read_cmt file with
  | exception _ -> None
  | cmt -> (
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some source ->
          let fns, aliases = index_structure str in
          Some
            {
              m_modname = cmt.Cmt_format.cmt_modname;
              m_key = strip_lib_prefix cmt.Cmt_format.cmt_modname;
              m_source = source;
              m_fns = fns;
              m_aliases = aliases;
              m_structure = str;
            }
      | _ -> None)

(* An interface .cmti: the unit's name, its .mli and its signature. *)
type intf = {
  i_modname : string;
  i_source : string;
  i_sig : Typedtree.signature;
}

let load_cmti file =
  match Cmt_format.read_cmt file with
  | exception _ -> None
  | cmt -> (
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Interface sg, Some source ->
          Some
            { i_modname = cmt.Cmt_format.cmt_modname; i_source = source;
              i_sig = sg }
      | _ -> None)

(* Walk [root] for files with suffix [ext]. Unlike the source walk this
   must descend into dot-directories: dune keeps artifacts under .objs. *)
let rec walk_cmts ext dir =
  if not (Sys.is_directory dir) then
    if Filename.check_suffix dir ext then [ dir ] else []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry -> walk_cmts ext (Filename.concat dir entry))

type index = {
  policy : Policy.t;
  mods : modul list;
  by_key : (string, modul list) Hashtbl.t;
  scanned : modul list;  (* modules whose source lives under a scan root *)
  intfs : intf list;  (* interfaces whose .mli lives under a scan root *)
}

let lib_prefix modname =
  match String.index_opt modname '_' with
  | Some _ -> (
      (* prefix up to and including the "__" separator, if any *)
      let rec find i =
        if i + 1 >= String.length modname then None
        else if modname.[i] = '_' && modname.[i + 1] = '_' then Some i
        else find (i + 1)
      in
      match find 0 with
      | Some i -> Some (String.sub modname 0 i)
      | None -> None)
  | None -> None

(* Resolve a short module key from [caller]: prefer a sibling of the
   caller's own library, else a unique match anywhere. *)
let find_module idx ~caller key =
  match Hashtbl.find_opt idx.by_key key with
  | None -> None
  | Some [ m ] -> Some m
  | Some ms -> (
      match lib_prefix caller.m_modname with
      | Some p -> (
          match
            List.find_opt (fun m -> lib_prefix m.m_modname = Some p) ms
          with
          | Some m -> Some m
          | None -> None)
      | None -> None)

let under_scan policy source =
  List.exists
    (fun root ->
      let root = if Filename.check_suffix root "/" then root else root ^ "/" in
      String.length source > String.length root
      && String.sub source 0 (String.length root) = root)
    policy.Policy.scan

let build_index policy ~cmt_root =
  let mods = List.filter_map load_cmt (walk_cmts ".cmt" cmt_root) in
  let by_key = Hashtbl.create 97 in
  List.iter
    (fun m ->
      if m.m_key <> "" then
        Hashtbl.replace by_key m.m_key
          (m :: (Option.value ~default:[] (Hashtbl.find_opt by_key m.m_key))))
    mods;
  let scanned =
    List.filter (fun m -> under_scan policy m.m_source) mods
  in
  let intfs =
    List.filter_map load_cmti (walk_cmts ".cmti" cmt_root)
    |> List.filter (fun i -> under_scan policy i.i_source)
  in
  { policy; mods; by_key; scanned; intfs }

(* ------------------------------------------------------------------ *)
(* Attributes: the justified escape hatches. *)

let attr_payload_string (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Parsetree.Pstr_eval
              ( { pexp_desc = Parsetree.Pexp_constant (Pconst_string (s, _, _));
                  _ },
                _ );
          _;
        };
      ] ->
      Some s
  | _ -> None

(* [None] — no such attribute; [Some (Some why)] — justified;
   [Some None] — attribute present but missing its justification. *)
let escape_hatch name (attrs : Parsetree.attributes) =
  List.fold_left
    (fun acc (attr : Parsetree.attribute) ->
      if attr.attr_name.txt = name then Some (attr_payload_string attr)
      else acc)
    None attrs

(* ------------------------------------------------------------------ *)
(* R5 — hot-path allocation freedom. *)

(* External callees certified allocation-free without analysis: integer
   and comparison primitives, array/bytes indexing, and the handful of
   Stdlib entry points that only read or overwrite. Everything else an
   uncertified external call must be justified in the policy
   (alloc-free) or at the call site ([@osiris.alloc_ok "why"]). *)
let builtin_alloc_free =
  [
    "+"; "-"; "*"; "/"; "mod"; "abs"; "land"; "lor"; "lxor"; "lnot"; "lsl";
    "lsr"; "asr"; "~-"; "~+"; "succ"; "pred"; "="; "<>"; "<"; ">"; "<="; ">=";
    "=="; "!="; "not"; "&&"; "||"; "min"; "max"; "compare"; "ignore"; "fst";
    "snd"; "incr"; "decr"; "!"; ":="; "int_of_float"; "truncate"; "raise";
    "raise_notrace"; "int_of_char"; "char_of_int";
    (* %floatofint and float arithmetic are primitives whose results
       stay unboxed in arithmetic/store context; a result that escapes
       into a binding is reported separately by the boxed-binding rule *)
    "float_of_int"; "+."; "-."; "*."; "/."; "~-.";
    "Array.length"; "Array.get"; "Array.set"; "Array.unsafe_get";
    "Array.unsafe_set"; "Array.fill"; "Array.blit";
    "Bytes.length"; "Bytes.get"; "Bytes.set"; "Bytes.unsafe_get";
    "Bytes.unsafe_set"; "Bytes.blit"; "Bytes.blit_string"; "Bytes.fill";
    "String.length"; "String.get"; "String.unsafe_get";
    "Char.code"; "Char.chr"; "Int.equal"; "Int.compare";
    "Hashtbl.find"; "Hashtbl.mem"; "Hashtbl.remove"; "Hashtbl.length";
    "Float.of_int"; "Float.to_int";
  ]

(* A resolved path as ("Mod", "fn") / ("", "fn"): its last module
   component, library wrapper components and Stdlib dropped. *)
let short_name elems =
  let rec split acc = function
    | [] -> (acc, "")
    | [ v ] -> (acc, v)
    | e :: tl -> split (acc @ [ e ]) tl
  in
  let mods, v = split [] elems in
  let mods =
    List.filter_map
      (fun e ->
        let s = strip_lib_prefix e in
        if s = "" || s = "Stdlib" || e = "Stdlib" then None else Some s)
      mods
  in
  match List.rev mods with [] -> ("", v) | last :: _ -> (last, v)

(* [short_name] of a call path, after resolving local [module M = ...]
   aliases. *)
let normalize_call (m : modul) elems =
  short_name
    (match elems with
    | head :: rest -> (
        match List.assoc_opt head m.m_aliases with
        | Some target -> target @ rest
        | None -> elems)
    | [] -> [])

let display_name (mk, v) = if mk = "" then v else mk ^ "." ^ v

(* The number of boxed-number types whose bindings we flag. *)
let is_boxed_number (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      Path.same p Predef.path_float
      || Path.same p Predef.path_int32
      || Path.same p Predef.path_int64
      || Path.same p Predef.path_nativeint
  | _ -> false

type r5 = {
  idx : index;
  mutable root : string;  (* "lib/sim/wheel.ml:add", for messages *)
  r5_violations : violation list ref;
  visited : (string, unit) Hashtbl.t;  (* modname ^ "." ^ fn *)
}

(* Strip the curried parameter spine of a definition: the outer
   Texp_function chain is the function's own arrows, not a closure
   allocated on the hot path. A multi-case outer [function] contributes
   every arm's body. *)
let rec fn_bodies (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_function { cases = [ { c_rhs; _ } ]; _ } -> fn_bodies c_rhs
  | Typedtree.Texp_function { cases; _ } ->
      List.map (fun (c : Typedtree.value Typedtree.case) -> c.c_rhs) cases
  | _ -> [ e ]

let rec r5_check_fn st (m : modul) fn_name (body : Typedtree.expression) =
  let key = m.m_modname ^ "." ^ fn_name in
  if not (Hashtbl.mem st.visited key) then begin
    Hashtbl.replace st.visited key ();
    List.iter (r5_expr st m fn_name) (fn_bodies body)
  end

and r5_add st m fn ~loc what =
  st.r5_violations :=
    {
      rule = "R5";
      file = m.m_source;
      line = line_of_loc loc;
      message =
        Printf.sprintf "%s in `%s' (hot via %s)" what fn st.root;
    }
    :: !(st.r5_violations)

(* One expression of a hot function body. Sub-expressions are walked
   explicitly so a justified [@osiris.alloc_ok] can prune its whole
   subtree. *)
and r5_expr st m fn (e : Typedtree.expression) =
  match escape_hatch "osiris.alloc_ok" e.exp_attributes with
  | Some (Some _why) -> () (* justified: site accepted, subtree pruned *)
  | Some None ->
      r5_add st m fn ~loc:e.exp_loc
        "[@osiris.alloc_ok] without a justification string"
  | None -> (
      let recurse () = r5_children st m fn e in
      match e.exp_desc with
      | Typedtree.Texp_function _ ->
          r5_add st m fn ~loc:e.exp_loc "closure construction"
      | Typedtree.Texp_tuple _ ->
          r5_add st m fn ~loc:e.exp_loc "tuple construction";
          recurse ()
      | Typedtree.Texp_record _ ->
          r5_add st m fn ~loc:e.exp_loc "record construction";
          recurse ()
      | Typedtree.Texp_array _ ->
          r5_add st m fn ~loc:e.exp_loc "array construction";
          recurse ()
      | Typedtree.Texp_construct (_, cd, args) when args <> [] ->
          r5_add st m fn ~loc:e.exp_loc
            (Printf.sprintf "allocating constructor %s" cd.cstr_name);
          recurse ()
      | Typedtree.Texp_variant (_, Some _) ->
          r5_add st m fn ~loc:e.exp_loc "polymorphic variant allocation";
          recurse ()
      | Typedtree.Texp_lazy _ | Typedtree.Texp_object _
      | Typedtree.Texp_pack _ ->
          r5_add st m fn ~loc:e.exp_loc "lazy/object/module allocation"
      | Typedtree.Texp_letop _ ->
          r5_add st m fn ~loc:e.exp_loc "binding-operator allocation"
      | Typedtree.Texp_let (_, vbs, body) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              (match escape_hatch "osiris.alloc_ok" vb.vb_attributes with
              | Some (Some _) -> ()
              | Some None ->
                  r5_add st m fn ~loc:vb.vb_loc
                    "[@osiris.alloc_ok] without a justification string"
              | None ->
                  (match vb.vb_expr.exp_desc with
                  | Typedtree.Texp_constant _ | Typedtree.Texp_ident _ -> ()
                  | _ ->
                      if is_boxed_number vb.vb_expr.exp_type then
                        r5_add st m fn ~loc:vb.vb_loc
                          "boxed float/int64 binding");
                  r5_expr st m fn vb.vb_expr))
            vbs;
          r5_expr st m fn body
      | Typedtree.Texp_match (scrut, cases, _) ->
          (* [match a, b with ...] never builds the tuple: the compiler
             matches the components in place. Only a tuple that escapes
             the immediate scrutinee position allocates. *)
          (match scrut.exp_desc with
          | Typedtree.Texp_tuple els -> List.iter (r5_expr st m fn) els
          | _ -> r5_expr st m fn scrut);
          List.iter
            (fun (c : Typedtree.computation Typedtree.case) ->
              Option.iter (r5_expr st m fn) c.c_guard;
              r5_expr st m fn c.c_rhs)
            cases
      | Typedtree.Texp_apply (f, args) ->
          if List.exists (fun (_, a) -> a = None) args then
            r5_add st m fn ~loc:e.exp_loc "partial application";
          (match f.exp_desc with
          | Typedtree.Texp_ident (path, _, _) ->
              r5_call st m fn ~loc:e.exp_loc (path_elems path)
          | _ ->
              r5_add st m fn ~loc:e.exp_loc
                "call through a computed function value";
              r5_expr st m fn f);
          List.iter
            (fun (_, a) -> match a with Some a -> r5_expr st m fn a | None -> ())
            args
      | _ -> recurse ())

and r5_call st m fn ~loc elems =
  match elems with
  | [ name ] -> (
      (* Unqualified: a sibling top-level function, or a local value. *)
      match List.assoc_opt name m.m_fns with
      | Some body -> r5_check_fn st m name body
      | None ->
          if
            not
              (List.mem name builtin_alloc_free
              || List.mem name st.idx.policy.Policy.alloc_free)
          then
            r5_add st m fn ~loc
              (Printf.sprintf
                 "call through local function value `%s' (not certifiable)"
                 name))
  | _ -> (
      let mk, v = normalize_call m elems in
      let name = display_name (mk, v) in
      let certified =
        List.mem name builtin_alloc_free
        || List.mem v builtin_alloc_free
        || List.mem name st.idx.policy.Policy.alloc_free
        || List.mem v st.idx.policy.Policy.alloc_free
      in
      if not certified then
        match find_module st.idx ~caller:m mk with
        | Some target -> (
            match List.assoc_opt v target.m_fns with
            | Some body -> r5_check_fn st target v body
            | None ->
                r5_add st m fn ~loc
                  (Printf.sprintf
                     "call into `%s': no analyzable definition (extern or \
                      re-export); certify with 'alloc-free' or \
                      [@osiris.alloc_ok \"why\"]"
                     name))
        | None ->
            r5_add st m fn ~loc
              (Printf.sprintf
                 "call into non-allocation-certified function `%s'" name))

and r5_children st m fn (e : Typedtree.expression) =
  (* Generic traversal that funnels every sub-expression back through
     [r5_expr], so pruning and checks stay consistent. *)
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ sub -> r5_expr st m fn sub);
    }
  in
  Tast_iterator.default_iterator.expr it e

let check_r5 idx =
  let st =
    { idx; root = ""; r5_violations = ref []; visited = Hashtbl.create 97 }
  in
  let missing = ref [] in
  List.iter
    (fun (file, fn) ->
      st.root <- file ^ ":" ^ fn;
      match
        List.find_opt (fun m -> Policy.path_matches file m.m_source) idx.mods
      with
      | None ->
          missing :=
            {
              rule = "R5";
              file;
              line = 1;
              message =
                Printf.sprintf
                  "hot entry %s: no .cmt for this file (stale policy entry, \
                   or the tree was not built)"
                  st.root;
            }
            :: !missing
      | Some m -> (
          match List.assoc_opt fn m.m_fns with
          | None ->
              missing :=
                {
                  rule = "R5";
                  file = m.m_source;
                  line = 1;
                  message =
                    Printf.sprintf
                      "hot entry %s: no top-level function `%s' in %s"
                      st.root fn m.m_source;
                }
                :: !missing
          | Some body -> r5_check_fn st m fn body))
    idx.policy.Policy.hot;
  !missing @ !(st.r5_violations)

(* ------------------------------------------------------------------ *)
(* R7 — conservation coverage of registered counters. *)

type counter_reg = { cr_name : string; cr_key : string; cr_m : modul;
                     cr_loc : Location.t }

let last_component s =
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

(* Every [Metrics.counter "..."] registration in the scanned modules.
   Dynamic prefixes of the form [prefix ^ ".suffix"] register under a
   wildcard display name but keep their suffix as the coverage key. *)
let collect_counters idx =
  let regs = ref [] in
  let reg m (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_apply (f, args) -> (
        match f.exp_desc with
        | Typedtree.Texp_ident (path, _, _)
          when display_name (normalize_call m (path_elems path))
               = "Metrics.counter" -> (
            let arg =
              List.find_map
                (fun (_, a) -> (a : Typedtree.expression option))
                args
            in
            match arg with
            | Some { exp_desc = Typedtree.Texp_constant c; exp_loc; _ } -> (
                match c with
                | Asttypes.Const_string (s, _, _) ->
                    regs :=
                      {
                        cr_name = s;
                        cr_key = last_component s;
                        cr_m = m;
                        cr_loc = exp_loc;
                      }
                      :: !regs
                | _ -> ())
            | Some
                {
                  exp_desc =
                    Typedtree.Texp_apply
                      ( { exp_desc = Typedtree.Texp_ident (op, _, _); _ },
                        [
                          _;
                          ( _,
                            Some
                              {
                                exp_desc =
                                  Typedtree.Texp_constant
                                    (Asttypes.Const_string (suffix, _, _));
                                _;
                              } );
                        ] );
                  exp_loc;
                  _;
                }
              when path_elems op |> List.rev |> List.hd = "^" ->
                let s = String.trim suffix in
                let s =
                  if String.length s > 0 && s.[0] = '.' then
                    String.sub s 1 (String.length s - 1)
                  else s
                in
                regs :=
                  {
                    cr_name = "*." ^ s;
                    cr_key = last_component s;
                    cr_m = m;
                    cr_loc = exp_loc;
                  }
                  :: !regs
            | Some other ->
                regs :=
                  {
                    cr_name = "<dynamic>";
                    cr_key = "";
                    cr_m = m;
                    cr_loc = other.exp_loc;
                  }
                  :: !regs
            | None -> ())
        | _ -> ())
    | _ -> ()
  in
  List.iter
    (fun m ->
      let it =
        {
          Tast_iterator.default_iterator with
          expr =
            (fun it e ->
              reg m e;
              Tast_iterator.default_iterator.expr it e);
        }
      in
      it.structure it m.m_structure)
    idx.scanned;
  List.rev !regs

(* Names read inside the policy's coverage functions: record field
   labels and called accessor names, anywhere under a scan root. *)
let collect_coverage idx =
  let reads = Hashtbl.create 97 in
  let note n = Hashtbl.replace reads n () in
  let walk_body m body =
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun it (e : Typedtree.expression) ->
            (match e.exp_desc with
            | Typedtree.Texp_field (_, _, lbl) -> note lbl.lbl_name
            | Typedtree.Texp_apply (f, _) -> (
                match f.exp_desc with
                | Typedtree.Texp_ident (path, _, _) ->
                    let _, v = normalize_call m (path_elems path) in
                    note v
                | _ -> ())
            | _ -> ());
            Tast_iterator.default_iterator.expr it e);
      }
    in
    List.iter (it.expr it) (fn_bodies body)
  in
  List.iter
    (fun m ->
      List.iter
        (fun (fn, body) ->
          if List.mem fn idx.policy.Policy.coverage_fns then walk_body m body)
        m.m_fns)
    idx.scanned;
  reads

let check_r7 idx =
  let regs = collect_counters idx in
  let reads = collect_coverage idx in
  let unread cr =
    let covered = cr.cr_key <> "" && Hashtbl.mem reads cr.cr_key in
    let exempt =
      Policy.uncovered_ok idx.policy cr.cr_name
      || (cr.cr_key <> "" && Policy.uncovered_ok idx.policy cr.cr_key)
    in
    if covered || exempt then None
    else
      Some
        {
          rule = "R7";
          file = cr.cr_m.m_source;
          line = line_of_loc cr.cr_loc;
          message =
            Printf.sprintf
              "counter '%s' is not read by any conservation/invariant \
               check (coverage-fn set: %s); add a check or an 'uncovered' \
               policy entry"
              cr.cr_name
              (String.concat ", " idx.policy.Policy.coverage_fns);
        }
  in
  (* An exemption that matches no registration has outlived its
     counter: a stale entry, as a stale [hot] entry is for R5. *)
  let stale u =
    if List.exists (fun cr -> cr.cr_name = u || cr.cr_key = u) regs then None
    else
      Some
        {
          rule = "R7";
          file = String.concat " " idx.policy.Policy.scan;
          line = 1;
          message =
            Printf.sprintf
              "uncovered entry '%s' matches no counter registered under the \
               scan roots (stale policy entry); delete it"
              u;
        }
  in
  List.filter_map stale idx.policy.Policy.uncovered
  @ List.filter_map unread regs

(* ------------------------------------------------------------------ *)
(* The rules on one walk of every unit: R1–R3, R6 and R8 judge the
   scanned units' references, assignments and handlers; R9 and R10
   judge the interfaces by every unit's references. *)

(* [W.M], [W__.M] and [W__M] all name unit [W__M] of dune's wrapped
   library [W]. *)
let wrapped w m =
  let n = String.length w in
  if n > 2 && String.sub w (n - 2) 2 = "__" then w ^ m else w ^ "__" ^ m

(* The unit a resolved value or type path lives in, and the path inside
   it. *)
let unit_path units = function
  | w :: m :: rest when rest <> [] && Hashtbl.mem units (wrapped w m) ->
      Some (wrapped w m, rest)
  | u :: rest when rest <> [] && Hashtbl.mem units u -> Some (u, rest)
  | _ -> None

(* Every reference of [m]: [ident path loc] for each value or module
   identifier, its path resolved through aliases, [note ~own key] for
   each one that names a unit's value, [passed key label] for each
   optional argument a call supplies, [read ty label] for each label a
   field access or record pattern reads, [assigned ty label] and
   [setfield label loc] for each [r.label <- v], [handlers cases] for
   each [try ... with], and [declare label] for each label of a record
   type [m] declares. An omitted optional argument is filled in by the
   typechecker with a [None] at [Location.none]; a supplied or
   forwarded one has the caller's location. Construction,
   [{ r with ... }], [=] and [compare] read no label. *)
let scan_refs units (m : modul) ~ident ~note ~passed ~read ~assigned
    ~setfield ~handlers ~declare =
  let aliases = Hashtbl.create 8 and top = Hashtbl.create 64 in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      let add id = Hashtbl.replace top (Ident.unique_name id) () in
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
          List.iter add (Typedtree.let_bound_idents vbs)
      | Typedtree.Tstr_module { mb_id = Some id; _ } -> add id
      | Typedtree.Tstr_type (_, decls) ->
          List.iter (fun (d : Typedtree.type_declaration) -> add d.typ_id) decls
      | _ -> ())
    m.m_structure.str_items;
  let rec elems (p : Path.t) =
    match p with
    | Path.Pident id -> (
        let u = Ident.unique_name id in
        match Hashtbl.find_opt aliases u with
        | Some target -> target
        | None when Hashtbl.mem top u -> [ m.m_modname; Ident.name id ]
        | None -> [ Ident.name id ])
    | Path.Pdot (p, s) -> elems p @ [ s ]
    | Path.Papply (p, _) -> elems p
    | _ -> []
  in
  let key p =
    Option.map
      (fun (u, rest) -> (u, String.concat "." (u :: rest)))
      (unit_path units (elems p))
  in
  let label f (lbl : Types.label_description) =
    match Types.get_desc lbl.lbl_res with
    | Types.Tconstr (p, _, _) ->
        Option.iter (fun (_, ty) -> f ty lbl.lbl_name) (key p)
    | _ -> ()
  in
  let alias id (me : Typedtree.module_expr) =
    match (id, me.mod_desc) with
    | Some id, Typedtree.Tmod_ident (p, _) ->
        Hashtbl.replace aliases (Ident.unique_name id) (elems p)
    | _ -> ()
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) ->
        ident (elems p) e.exp_loc;
        Option.iter (fun (u, k) -> note ~own:(u = m.m_modname) k) (key p)
    | Typedtree.Texp_letmodule (id, _, _, me, _) -> alias id me
    | Typedtree.Texp_apply
        ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) ->
        Option.iter
          (fun (_, k) ->
            List.iter
              (function
                | Asttypes.Optional l, Some (a : Typedtree.expression)
                  when a.exp_loc <> Location.none ->
                    passed k l
                | _ -> ())
              args)
          (key p)
    | Typedtree.Texp_field (_, _, lbl) -> label read lbl
    | Typedtree.Texp_setfield (_, lid, lbl, _) ->
        label assigned lbl;
        setfield lbl.lbl_name lid.loc
    | Typedtree.Texp_try (_, cases) -> handlers cases
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let pat (type k) it (p : k Typedtree.general_pattern) =
    (match p.pat_desc with
    | Typedtree.Tpat_record (fields, _) ->
        List.iter (fun (_, lbl, _) -> label read lbl) fields
    | _ -> ());
    Tast_iterator.default_iterator.pat it p
  in
  let module_binding it (mb : Typedtree.module_binding) =
    alias mb.mb_id mb.mb_expr;
    Tast_iterator.default_iterator.module_binding it mb
  in
  let module_expr it (me : Typedtree.module_expr) =
    (match me.mod_desc with
    | Typedtree.Tmod_ident (p, _) -> ident (elems p) me.mod_loc
    | _ -> ());
    Tast_iterator.default_iterator.module_expr it me
  in
  let type_kind it (k : Typedtree.type_kind) =
    (match k with
    | Typedtree.Ttype_record lds ->
        List.iter
          (fun (ld : Typedtree.label_declaration) -> declare ld.ld_name.txt)
          lds
    | _ -> ());
    Tast_iterator.default_iterator.type_kind it k
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr;
      pat;
      module_binding;
      module_expr;
      type_kind;
    }
  in
  it.structure it m.m_structure

(* A signature's items, those of its [module M : sig ... end]s included,
   each with its module path inside the unit. *)
let rec sig_items prefix (items : Typedtree.signature_item list) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Typedtree.Tsig_module
          { md_name = { txt = Some n; _ };
            md_type = { mty_desc = Typedtree.Tmty_signature s; _ }; _ } ->
          sig_items (prefix @ [ n ]) s.sig_items
      | d -> [ (prefix, d) ])
    items

(* The record types an interface declares: type key, manifest, labels. *)
let sig_records i =
  List.concat_map
    (function
      | prefix, Typedtree.Tsig_type (_, decls) ->
          List.filter_map
            (fun (d : Typedtree.type_declaration) ->
              let ty = i.i_modname :: prefix @ [ d.typ_name.txt ] in
              match d.typ_kind with
              | Typedtree.Ttype_record lds ->
                  Some (String.concat "." ty, d.typ_manifest, lds)
              | _ -> None)
            decls
      | _ -> [])
    (sig_items [] i.i_sig.sig_items)

(* Does this handler arm match every exception? A wildcard or a
   variable, possibly under an alias or in an or-pattern. *)
let rec matches_everything (p : Typedtree.pattern) =
  match p.pat_desc with
  | Typedtree.Tpat_any | Typedtree.Tpat_var _ -> true
  | Typedtree.Tpat_alias (p, _, _) -> matches_everything p
  | Typedtree.Tpat_or (a, b, _) -> matches_everything a || matches_everything b
  | _ -> false

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, ret, _) -> l :: optional_labels ret
  | Types.Tarrow (_, _, ret, _) -> optional_labels ret
  | _ -> []

let check_refs idx =
  let units = Hashtbl.create 256 in
  List.iter (fun m -> Hashtbl.replace units m.m_modname ()) idx.mods;
  let records = List.map (fun i -> (i, sig_records i)) idx.intfs in
  (* A manifest re-export ([type t = M.t = {...}]) has no labels of its
     own: a read through it reads [M.t]'s. *)
  let same = Hashtbl.create 8 in
  List.iter
    (fun (_, rs) ->
      List.iter
        (function
          | ty, Some { Typedtree.ctyp_desc = Ttyp_constr (p, _, _); _ }, _ ->
              Option.iter
                (fun (u, rest) ->
                  Hashtbl.replace same ty (String.concat "." (u :: rest)))
                (unit_path units (path_elems p))
          | _ -> ())
        rs)
    records;
  let canon ty = Option.value ~default:ty (Hashtbl.find_opt same ty) in
  (* key → referenced from another unit *)
  let refs = Hashtbl.create 1024 and given = Hashtbl.create 256 in
  let reads = Hashtbl.create 1024 and sets = Hashtbl.create 128 in
  let note ~own k =
    Hashtbl.replace refs k ((not own) || Hashtbl.find_opt refs k = Some true)
  in
  let passed k l = Hashtbl.replace given (k, l) () in
  let read ty l = Hashtbl.replace reads (canon ty, l) () in
  let assigned ty l = Hashtbl.replace sets (canon ty, l) () in
  let lint = ref [] and declared = Hashtbl.create 256 in
  let flag (m : modul) rule loc fmt =
    Printf.ksprintf
      (fun message ->
        lint :=
          { rule; file = m.m_source; line = line_of_loc loc; message } :: !lint)
      fmt
  in
  let allowed (m : modul) rule =
    Policy.exempt idx.policy ~rule ~file:m.m_source
  in
  (* A path resolved through aliases and opens: [open Unix] cannot hide
     a wall-clock read, nor [module S = Stdlib] an [S.min]; a local
     [min] is not Stdlib's. *)
  let ident m path loc =
    let name = display_name (short_name path) in
    if List.mem name idx.policy.Policy.wall_clock then
      flag m "R6" loc
        "reference to the wall-clock function `%s': simulated code reads \
         only the engine's clock"
        name;
    match path with
    | ("Stdlib" :: "Obj" :: _ | "Stdlib__Obj" :: _) when not (allowed m "obj")
      ->
        flag m "R2" loc
          "reference to %s: unsafe casts are banned in library code" name
    | [ "Stdlib"; "exit" ] when not (allowed m "exit") ->
        flag m "R3" loc
          "call to exit in library code can swallow invariant violations"
    | [ "Stdlib"; (("min" | "max") as f) ] ->
        flag m "R8" loc
          "Stdlib.%s compares polymorphically (a C call even on ints): use \
           Int.%s, or write the float compare out"
          f f
    | _ -> ()
  in
  let setfield m field loc =
    match Policy.owners idx.policy field with
    | Some writers
      when not (List.exists (fun w -> Policy.path_matches w m.m_source) writers)
      ->
        flag m "R1" loc
          "field '%s' assigned outside its declared writer (policy allows: \
           %s)"
          field
          (String.concat ", " writers)
    | _ -> ()
  in
  let handlers m cases =
    if not (allowed m "catchall") then
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          if c.c_guard = None && matches_everything c.c_lhs then
            flag m "R3" c.c_lhs.pat_loc
              "catch-all exception handler (try ... with _): name the \
               exceptions instead")
        cases
  in
  let declare l = Hashtbl.replace declared l () in
  let quiet _ _ = () in
  List.iter
    (fun m ->
      if under_scan idx.policy m.m_source then
        scan_refs units m ~note ~passed ~read ~assigned ~ident:(ident m)
          ~setfield:(setfield m) ~handlers:(handlers m) ~declare
      else
        scan_refs units m ~note ~passed ~read ~assigned ~ident:quiet
          ~setfield:quiet ~handlers:ignore ~declare:ignore)
    idx.mods;
  (* An [own] or [shared] entry whose field no scanned record declares
     guards nothing: a stale entry, as a stale [hot] entry is for R5. *)
  let stale kind field =
    if Hashtbl.mem declared field then None
    else
      Some
        {
          rule = "R1";
          file = String.concat " " idx.policy.Policy.scan;
          line = 1;
          message =
            Printf.sprintf
              "%s entry '%s': no record under the scan roots declares this \
               field (stale policy entry); delete it"
              kind field;
        }
  in
  let violation rule i loc fmt =
    Printf.ksprintf
      (fun message ->
        { rule; file = i.i_source; line = line_of_loc loc; message })
      fmt
  in
  let r9 i prefix (vd : Typedtree.value_description) =
    let path = prefix @ [ vd.val_name.txt ] in
    let k = String.concat "." (i.i_modname :: path) in
    let name = String.concat "." (strip_lib_prefix i.i_modname :: path) in
    let add fmt = violation "R9" i vd.val_loc fmt in
    (match Hashtbl.find_opt refs k with
    | Some true -> []
    | Some false ->
        [ add "`%s' is used only inside its own module; drop it from the \
               interface" name ]
    | None -> [ add "`%s' is referenced nowhere; delete it" name ])
    @ List.filter_map
        (fun l ->
          if Hashtbl.mem given (k, l) then None
          else
            Some
              (add "`%s ?%s' is passed by no call; make its default a \
                    constant" name l))
        (optional_labels vd.val_val.Types.val_type)
  in
  let r10 i = function
    | ty, None, lds ->
        List.concat_map
          (fun (ld : Typedtree.label_declaration) ->
            let l = ld.ld_name.txt in
            let name = strip_lib_prefix ty ^ "." ^ l in
            let add fmt = violation "R10" i ld.ld_loc fmt in
            if not (Hashtbl.mem reads (ty, l)) then
              [ add "`%s' is read by no unit; delete it" name ]
            else if
              ld.ld_mutable = Asttypes.Mutable && not (Hashtbl.mem sets (ty, l))
            then [ add "`%s' is assigned by no unit; drop its `mutable'" name ]
            else [])
          lds
    | _ -> []
  in
  !lint
  @ List.filter_map (fun (f, _) -> stale "own" f) idx.policy.Policy.own
  @ List.filter_map (stale "shared") idx.policy.Policy.shared
  @ List.concat_map
      (fun (i, rs) ->
        List.concat_map
          (function
            | prefix, Typedtree.Tsig_value vd -> r9 i prefix vd | _ -> [])
          (sig_items [] i.i_sig.sig_items)
        @ List.concat_map (r10 i) rs)
      records

(* ------------------------------------------------------------------ *)

(* R4 — every scanned unit ships a .mli, so the abstraction boundary
   the ownership rules rely on exists. Dune's generated library
   wrappers have none to ship. *)
let check_r4 idx =
  List.filter_map
    (fun m ->
      if
        Filename.check_suffix m.m_source ".ml-gen"
        || List.exists (fun i -> i.i_modname = m.m_modname) idx.intfs
        || Policy.exempt idx.policy ~rule:"no-mli" ~file:m.m_source
      then None
      else
        Some
          {
            rule = "R4";
            file = m.m_source;
            line = 1;
            message =
              "module has no .mli: the ownership rules rely on explicit \
               interfaces";
          })
    idx.scanned

let check_tree policy ~cmt_root =
  let idx = build_index policy ~cmt_root in
  let by_file v = (v.file, v.line, v.rule) in
  check_r4 idx @ check_r5 idx @ check_r7 idx @ check_refs idx
  |> List.sort (fun a b -> compare (by_file a) (by_file b))
