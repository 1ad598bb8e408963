type entry = { phys_base : int; offset : int; len : int }

type t = {
  nslots : int;
  page_size : int;
  mutable entries : entry array; (* slot i covers map-virtual page i *)
  mutable used : int;
  mutable load_count : int;
}

let create ~slots ~page_size =
  if slots <= 0 || page_size <= 0 then invalid_arg "Sg_map.create";
  { nslots = slots; page_size; entries = [||]; used = 0; load_count = 0 }

let loads t = t.load_count

let clear t =
  t.entries <- [||];
  t.used <- 0

let program t bufs =
  (* Each map slot covers one map-virtual page. A buffer that is not
     page-aligned still occupies ceil((offset_in_page + len) / page) slots;
     we model the common driver simplification of one slot per (page of
     each) buffer, keeping buffer boundaries at slot boundaries. *)
  let slots_needed =
    List.fold_left
      (fun acc (b : Pbuf.t) ->
        acc + ((b.Pbuf.len + t.page_size - 1) / t.page_size))
      0 bufs
  in
  if slots_needed > t.nslots then None
  else begin
    let entries = ref [] in
    List.iter
      (fun (b : Pbuf.t) ->
        let remaining = ref b.Pbuf.len and addr = ref b.Pbuf.addr in
        while !remaining > 0 do
          let chunk = Int.min !remaining t.page_size in
          entries := { phys_base = !addr; offset = 0; len = chunk } :: !entries;
          addr := !addr + chunk;
          remaining := !remaining - chunk
        done)
      bufs;
    t.entries <- Array.of_list (List.rev !entries);
    t.used <- Array.length t.entries;
    t.load_count <- t.load_count + t.used;
    Some 0
  end

let translate t mvaddr =
  let slot = mvaddr / t.page_size and off = mvaddr mod t.page_size in
  if slot < 0 || slot >= t.used then
    invalid_arg "Sg_map.translate: unprogrammed address";
  let e = t.entries.(slot) in
  if off >= e.len then invalid_arg "Sg_map.translate: beyond entry length";
  e.phys_base + e.offset + off
