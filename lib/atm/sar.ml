module Crc32 = Osiris_util.Crc32
module Metrics = Osiris_obs.Metrics

type strategy = In_order | Seq_number | Per_link of int

let pp_strategy fmt = function
  | In_order -> Format.pp_print_string fmt "in-order"
  | Seq_number -> Format.pp_print_string fmt "seq-number"
  | Per_link n -> Format.fprintf fmt "per-link(%d)" n

let trailer_size = 8

let framed_len n =
  let needed = n + trailer_size in
  (needed + Cell.data_size - 1) / Cell.data_size * Cell.data_size

let cells_per_pdu n = framed_len n / Cell.data_size

(* Pad and trailer, in place behind the payload's [len] bytes: what
   [segment] does to its copy and the board to the chain it gathered. *)
let frame_into buf ~len =
  let total = framed_len len in
  if len < 0 || Bytes.length buf < total then
    (invalid_arg "Sar.frame_into: buffer shorter than the framed PDU"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  Bytes.fill buf len (total - 8 - len) '\000';
  Bytes.set_int32_be buf (total - 8) (Int32.of_int len);
  Bytes.set_int32_be buf (total - 4) (Crc32.compute buf ~off:0 ~len:(total - 4))

(* The framing (eom) bit marks the last cell of each per-link
   sub-stream: cell k is last on its link iff no later cell maps to the
   same link. *)
let cell_of_framed ~vci ~nlinks ~ncells framed k =
  Cell.make ~vci ~seq:k ~eom:(k + nlinks >= ncells)
    ~last_of_pdu:(k = ncells - 1)
    (Bytes.sub framed (k * Cell.data_size) Cell.data_size)

let cut ~vci ~nlinks framed ~ncells =
  if nlinks < 1 then
    (invalid_arg "Sar.cut: nlinks must be >= 1"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  (Array.init ncells (cell_of_framed ~vci ~nlinks ~ncells framed)
  [@osiris.alloc_ok
    "the PDU's cells: one array, and per cell its record and a fresh \
     44-byte payload, which travels alone from here on"])

(* The list is built directly, not through [cut]: an array of more than
   256 cells lives in the major heap, and storing each young cell into
   it costs a write-barrier entry, which doubled the time per cell. *)
let segment ~vci ~nlinks pdu =
  if nlinks < 1 then invalid_arg "Sar.segment: nlinks must be >= 1";
  let n = Bytes.length pdu in
  let framed = Bytes.create (framed_len n) in
  Bytes.blit pdu 0 framed 0 n;
  frame_into framed ~len:n;
  let ncells = cells_per_pdu n in
  List.init ncells (cell_of_framed ~vci ~nlinks ~ncells framed)

(* An [Error] of a literal is a preallocated constant; [Ok n] is the one
   allocation, once per PDU. *)
let check_trailer ~total ~crc trailer ~off =
  if total < trailer_size || total mod Cell.data_size <> 0 then
    (Error "deframe: bad framed length" [@osiris.alloc_ok "a constant"])
  else if crc <> Bytes.get_int32_be trailer (off + 4) then
    (Error "deframe: CRC mismatch" [@osiris.alloc_ok "a constant"])
  else begin
    let n = Int32.to_int (Bytes.get_int32_be trailer off) in
    if n < 0 || framed_len n <> total then
      (Error "deframe: bad length field" [@osiris.alloc_ok "a constant"])
    else (Ok n [@osiris.alloc_ok "the verdict, once per PDU"])
  end

type placement = { offset : int; cell : Cell.t }

type outcome =
  | Placed of placement
  | Completed of placement * int
  | Rejected of string

type t = {
  strategy : strategy;
  max_cells : int;
  mutable received : int;
  mutable total_cells : int; (* -1 until known *)
  mutable next_offset : int; (* In_order *)
  seen : (int, unit) Hashtbl.t; (* Seq_number: seqs received *)
  link_counts : int array; (* Per_link: arrivals per link *)
  link_eom : bool array; (* Per_link: framing bit seen per link *)
  mutable saw_marked : bool; (* any cell of the current PDU carried the
                                congestion bit *)
}

let create strategy ~max_cells =
  if max_cells <= 0 then invalid_arg "Sar.create: max_cells must be positive";
  (match strategy with
  | Per_link n when n < 1 -> invalid_arg "Sar.create: Per_link needs >= 1 link"
  | _ -> ());
  let nlinks = match strategy with Per_link n -> n | _ -> 1 in
  {
    strategy;
    max_cells;
    received = 0;
    total_cells = -1;
    next_offset = 0;
    seen = Hashtbl.create 64;
    link_counts = Array.make nlinks 0;
    link_eom = Array.make nlinks false;
    saw_marked = false;
  }

let marked_seen t = t.saw_marked

let in_progress t = t.received > 0

let rec all_set flags i =
  i >= Array.length flags || (flags.(i) && all_set flags (i + 1))

let all_links_finished t =
  match t.strategy with
  | Per_link _ -> all_set t.link_eom 0
  | In_order | Seq_number -> false

let link_finished t ~link =
  match t.strategy with
  | Per_link _ ->
      link >= 0 && link < Array.length t.link_eom && t.link_eom.(link)
  | In_order | Seq_number -> false

let reset t =
  t.received <- 0;
  t.total_cells <- -1;
  t.next_offset <- 0;
  Hashtbl.reset t.seen;
  Array.fill t.link_counts 0 (Array.length t.link_counts) 0;
  Array.fill t.link_eom 0 (Array.length t.link_eom) false;
  t.saw_marked <- false

(* Outcome boxing is concentrated in these three constructors: every
   push returns one freshly boxed outcome (placement record plus its
   variant), which is the reassembly API's unit of work per cell.
   ROADMAP lists arena-allocated placements as the known headroom; until
   then these are the only certified allocations on the push path. *)
let placed ~offset cell =
  (Placed { offset; cell }
  [@osiris.alloc_ok
    "one boxed placement per pushed cell is the reassembly API's \
     contract; arena-allocated placements are tracked ROADMAP headroom"])

let rejected msg =
  (Rejected msg
  [@osiris.alloc_ok
    "rejects happen only for faulted or overflowing cells and carry a \
     static reason string; only the constructor box allocates"])

let completed t ~offset cell =
  (Completed ({ offset; cell }, t.total_cells * Cell.data_size)
  [@osiris.alloc_ok
    "completion fires once per PDU, not per cell; boxes the final \
     placement and the byte count"])

let push_in_order t (cell : Cell.t) =
  if t.received >= t.max_cells then rejected "reassembly overflow"
  else begin
    let offset = t.next_offset in
    t.next_offset <- t.next_offset + Cell.data_size;
    t.received <- t.received + 1;
    if cell.Cell.last_of_pdu || cell.Cell.eom then begin
      t.total_cells <- t.received;
      completed t ~offset cell
    end
    else placed ~offset cell
  end

let push_seq t (cell : Cell.t) =
  let seq = cell.Cell.seq in
  if seq >= t.max_cells then rejected "sequence number out of window"
  else if Hashtbl.mem t.seen seq then rejected "duplicate sequence number"
  else begin
    (Hashtbl.replace t.seen seq ()
    [@osiris.alloc_ok
      "dedup table grows one bucket per distinct sequence number and is \
       recycled at PDU reset"]);
    t.received <- t.received + 1;
    if cell.Cell.last_of_pdu then t.total_cells <- seq + 1;
    let offset = seq * Cell.data_size in
    if t.total_cells >= 0 && t.received = t.total_cells then
      completed t ~offset cell
    else if t.total_cells >= 0 && t.received > t.total_cells then
      rejected "more cells than the PDU length allows"
    else placed ~offset cell
  end

(* True when links [l..n-1] have all shown their framing bit. Top level
   so the completion test allocates no closure. *)
let rec links_framed t l n = l >= n || (t.link_eom.(l) && links_framed t (l + 1) n)

let push_per_link t ~link (cell : Cell.t) =
  let nlinks = Array.length t.link_counts in
  if link < 0 || link >= nlinks then rejected "unknown physical link"
  else if t.received >= t.max_cells then rejected "reassembly overflow"
  else begin
    let arrival = t.link_counts.(link) in
    let k = (arrival * nlinks) + link in
    t.link_counts.(link) <- arrival + 1;
    t.received <- t.received + 1;
    if cell.Cell.eom then t.link_eom.(link) <- true;
    if cell.Cell.last_of_pdu then t.total_cells <- k + 1;
    let offset = k * Cell.data_size in
    (* Complete when the total is known, every cell has arrived, and every
       link that carries cells of this PDU has shown its framing bit. *)
    if t.total_cells >= 0 && t.received >= t.total_cells then begin
      let links_used = Int.min nlinks t.total_cells in
      if t.received > t.total_cells then
        rejected "more cells than the PDU length allows"
      else if links_framed t 0 links_used then completed t ~offset cell
      else placed ~offset cell
    end
    else placed ~offset cell
  end

(* Reassembly is per-VC, with many short-lived instances; account at the
   module level rather than per instance. *)
let m_cells_pushed = Metrics.counter "sar.cells_pushed"
let m_pdus_completed = Metrics.counter "sar.pdus_completed"
let m_rejects = Metrics.counter "sar.rejects"

let push t ~link cell =
  Metrics.incr m_cells_pushed;
  if cell.Cell.marked then t.saw_marked <- true;
  let outcome =
    match t.strategy with
    | In_order -> push_in_order t cell
    | Seq_number -> push_seq t cell
    | Per_link _ -> push_per_link t ~link cell
  in
  (match outcome with
  | Completed _ -> Metrics.incr m_pdus_completed
  | Rejected _ -> Metrics.incr m_rejects
  | Placed _ -> ());
  outcome
