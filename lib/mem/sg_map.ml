type t = { nslots : int; page_size : int; mutable load_count : int }

let create ~slots ~page_size =
  if slots <= 0 || page_size <= 0 then invalid_arg "Sg_map.create";
  { nslots = slots; page_size; load_count = 0 }

let loads t = t.load_count

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
  if slots_needed > t.nslots then false
  else begin
    t.load_count <- t.load_count + slots_needed;
    true
  end
