type t = {
  id : int;
  vci : int;
  crossings : int;
}

type registry = {
  demux : Demux.t;
  mutable next_id : int;
  mutable paths : t list;
}

let create_registry demux = { demux; next_id = 1; paths = [] }

let establish reg ~name ~crossings ~handler =
  let vci = Demux.fresh_vci reg.demux in
  let path = { id = reg.next_id; vci; crossings } in
  reg.next_id <- reg.next_id + 1;
  Demux.bind reg.demux ~vci ~name (fun ~vci:_ msg -> handler path msg);
  reg.paths <- path :: reg.paths;
  path

let tear_down reg path =
  Demux.unbind reg.demux ~vci:path.vci;
  reg.paths <- List.filter (fun p -> p.id <> path.id) reg.paths

let find reg ~vci = List.find_opt (fun p -> p.vci = vci) reg.paths

let active reg = reg.paths
