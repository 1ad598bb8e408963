open Osiris_sim
module Machine = Osiris_core.Machine
module Phys_mem = Osiris_mem.Phys_mem
module Vspace = Osiris_mem.Vspace
module Pbuf = Osiris_mem.Pbuf
module Msg = Osiris_xkernel.Msg
module Ip = Osiris_proto.Ip
module Udp = Osiris_proto.Udp
module Cell = Osiris_atm.Cell

type result = {
  label : string;
  fragments : int;
  physical_buffers : int;
  boundary_splits : int;
  sg_map_loads : int;
}

(* DMA transactions needed for one fragment's buffer list under the
   boundary-stopping controller: splits at buffer ends and page edges. *)
let splits_of page_size pbufs =
  let data_len = Pbuf.total_len pbufs in
  let cells = (data_len + Cell.data_size - 1) / Cell.data_size in
  let count = ref 0 in
  for k = 0 to cells - 1 do
    let lo = k * Cell.data_size and hi = Int.min ((k + 1) * Cell.data_size) data_len in
    (* walk the chain to count the spans this cell needs *)
    let rec spans bufs off len acc =
      if len = 0 then acc
      else
        match bufs with
        | [] -> acc
        | (b : Pbuf.t) :: rest ->
            if off >= b.Pbuf.len then spans rest (off - b.Pbuf.len) len acc
            else begin
              let avail = b.Pbuf.len - off in
              let chunk = Int.min len avail in
              (* page-boundary splits within the span *)
              let addr = b.Pbuf.addr + off in
              let first_page = addr / page_size
              and last_page = (addr + chunk - 1) / page_size in
              spans (b :: rest) (off + chunk) (len - chunk)
                (acc + 1 + (last_page - first_page))
            end
    in
    let n = spans pbufs lo (hi - lo) 0 in
    count := !count + (n - 1)
  done;
  !count

let run ~mtu ~aligned ~contiguous () =
  (* The 2.2 fix needs both halves: an aligned MTU and page-aligned
     application messages. The naive case is misaligned too. *)
  let msg_size = 16 * 1024 in
  let page_offset = if aligned then 0 else 256 in
  let machine = Machine.ds5000_200 in
  let page_size = machine.Machine.page_size in
  let eng = Engine.create () in
  ignore eng;
  let mem = Phys_mem.create
      ~scramble:(Osiris_util.Rng.create ~seed:3)
      ~size:machine.Machine.mem_size ~page_size ()
  in
  let vs = Vspace.create mem in
  let msg =
    if contiguous then
      match Vspace.alloc_contiguous vs ~len:msg_size with
      | Some vaddr -> Msg.create vs ~vaddr ~len:msg_size
      | None -> failwith "no contiguous memory"
    else Msg.alloc vs ~len:msg_size ~page_offset ()
  in
  (* UDP header, then IP fragmentation, exactly as the stack does it —
     but counting buffers instead of transmitting. *)
  Msg.push msg ~len:Udp.header_size (fun b ->
      Bytes.set_uint16_be b 4 (Udp.header_size + msg_size));
  let cfg = { Ip.mtu; aligned_mtu = aligned } in
  let per_frag = Ip.fragment_data_size cfg ~page_size in
  let total = Msg.length msg in
  let frag_bufs = ref [] in
  let rec go off =
    if off < total then begin
      let chunk = Int.min per_frag (total - off) in
      let frag = Msg.sub msg ~off ~len:chunk in
      Msg.push frag ~len:Ip.header_size (fun _ -> ());
      frag_bufs := Msg.pbufs frag :: !frag_bufs;
      go (off + chunk)
    end
  in
  go 0;
  let fragments = List.length !frag_bufs in
  let physical_buffers =
    List.fold_left (fun acc bufs -> acc + List.length bufs) 0 !frag_bufs
  in
  let boundary_splits =
    List.fold_left (fun acc bufs -> acc + splits_of page_size bufs) 0 !frag_bufs
  in
  (* What a virtual-DMA machine (IBM RS/6000, DEC 3000) would pay: the
     driver loads one scatter/gather map slot per page of each buffer,
     per transfer. *)
  let sg = Osiris_mem.Sg_map.create ~slots:64 ~page_size in
  List.iter (fun bufs -> ignore (Osiris_mem.Sg_map.program sg bufs)) !frag_bufs;
  let sg_map_loads = Osiris_mem.Sg_map.loads sg in
  let label =
    Printf.sprintf "mtu=%dKB%s%s" (mtu / 1024)
      (if aligned then " aligned" else "")
      (if contiguous then " contig" else "")
  in
  { label; fragments; physical_buffers; boundary_splits; sg_map_loads }

let table () =
  let cases =
    [
      run ~mtu:4096 ~aligned:false ~contiguous:false ();
      run ~mtu:(4096 + 20) ~aligned:true ~contiguous:false ();
      run ~mtu:(16 * 1024) ~aligned:true ~contiguous:false ();
      run ~mtu:(16 * 1024) ~aligned:true ~contiguous:true ();
    ]
  in
  {
    Report.t_title =
      "2.2 ablation: physical buffers for a 16KB UDP message (4KB pages)";
    header =
      [ "policy"; "IP fragments"; "physical buffers"; "DMA splits";
        "sg-map loads" ];
    rows =
      List.map
        (fun r ->
          [
            r.label;
            string_of_int r.fragments;
            string_of_int r.physical_buffers;
            string_of_int r.boundary_splits;
            string_of_int r.sg_map_loads;
          ])
        cases;
    t_paper_note =
      "naive 4KB MTU: up to 14 buffers for 16KB (headers on own pages, \
       data misaligned); page-aligned MTU or contiguous allocation collapse \
       the count. The sg-map column shows fragmentation still costs \
       per-transfer map loads on virtual-DMA machines (2.2's closing \
       point)";
  }
