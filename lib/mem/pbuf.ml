type t = { addr : int; len : int }

let v ~addr ~len =
  if len <= 0 then invalid_arg "Pbuf.v: non-positive length";
  if addr < 0 then invalid_arg "Pbuf.v: negative address";
  { addr; len }

let total_len bufs = List.fold_left (fun acc b -> acc + b.len) 0 bufs

let rec coalesce = function
  | a :: b :: rest when a.addr + a.len = b.addr ->
      coalesce ({ addr = a.addr; len = a.len + b.len } :: rest)
  | a :: rest -> a :: coalesce rest
  | [] -> []
