type t = {
  id : int;
  vci : int;
  crossings : int;
}

type registry = {
  demux : Demux.t;
  mutable next_id : int;
}

let create_registry demux = { demux; next_id = 1 }

let establish reg ~name ~crossings ~handler =
  let vci = Demux.fresh_vci reg.demux in
  let path = { id = reg.next_id; vci; crossings } in
  reg.next_id <- reg.next_id + 1;
  Demux.bind reg.demux ~vci ~name (fun ~vci:_ msg -> handler path msg);
  path
