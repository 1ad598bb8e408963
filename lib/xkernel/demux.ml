type handler = vci:int -> Msg.t -> unit

type t = {
  table : (int, string * handler) Hashtbl.t;
  mutable next_vci : int;
}

let create () = { table = Hashtbl.create 32; next_vci = 32 }

let bind t ~vci ~name handler =
  match Hashtbl.find_opt t.table vci with
  | Some (bound, _) ->
      invalid_arg
        (Printf.sprintf "Demux.bind: VCI %d is bound to %S, cannot bind %S"
           vci bound name)
  | None -> Hashtbl.replace t.table vci (name, handler)

let deliver t ~vci msg =
  match Hashtbl.find_opt t.table vci with
  | None -> false
  | Some (_, h) ->
      h ~vci msg;
      true

let fresh_vci t =
  while Hashtbl.mem t.table t.next_vci do
    t.next_vci <- t.next_vci + 1
  done;
  let v = t.next_vci in
  t.next_vci <- t.next_vci + 1;
  v
