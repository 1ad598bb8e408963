(* Tests for cells and segmentation/reassembly, including the §2.6 skew
   tolerance properties. *)

open Osiris_atm
module Rng = Osiris_util.Rng

(* A wire cell is a 5-byte ATM header (four bytes of VCI and framing
   bits, then the header check byte) ahead of the 48-byte payload; the
   link charges every cell all 53 bytes. *)
let test_cell_header_check () =
  Alcotest.(check int) "header with its check byte" 5
    (Cell.wire_size - Cell.payload_size);
  Alcotest.(check int) "wire size" 53 Cell.wire_size

let test_cell_sizes () =
  Alcotest.(check int) "payload" 48 Cell.payload_size;
  Alcotest.(check int) "data" 44 Cell.data_size;
  Alcotest.(check int) "aal overhead" 4 Cell.aal_overhead

let test_framed_len () =
  Alcotest.(check int) "1 byte fits one cell" 44 (Sar.framed_len 1);
  Alcotest.(check int) "36 bytes fit one cell" 44 (Sar.framed_len 36);
  Alcotest.(check int) "37 bytes need two" 88 (Sar.framed_len 37);
  Alcotest.(check int) "cells per pdu" 2 (Sar.cells_per_pdu 37)

(* [Sar.frame_into] a PDU at the front of a buffer of stray bytes. *)
let frame pdu =
  let n = Bytes.length pdu in
  let framed = Bytes.make (Sar.framed_len n) '\xa5' in
  Bytes.blit pdu 0 framed 0 n;
  Sar.frame_into framed ~len:n;
  framed

(* [Sar.check_trailer] of a framed PDU held whole in one buffer. *)
let deframe_check framed =
  let total = Bytes.length framed in
  if total < Sar.trailer_size then
    Sar.check_trailer ~total ~crc:0l Bytes.empty ~off:0
  else
    Sar.check_trailer ~total
      ~crc:(Osiris_util.Crc32.compute framed ~off:0 ~len:(total - 4))
      framed ~off:(total - 8)

let frame_roundtrip =
  QCheck.Test.make ~name:"sar: frame/deframe identity" ~count:300
    QCheck.(map Bytes.of_string (string_of_size Gen.(0 -- 500)))
    (fun pdu ->
      let framed = frame pdu in
      Bytes.equal framed (Copying.frame pdu)
      &&
      match deframe_check framed with
      | Ok n -> Bytes.equal pdu (Bytes.sub framed 0 n)
      | Error _ -> false)

let frame_detects_corruption =
  QCheck.Test.make ~name:"sar: CRC catches corruption" ~count:300
    QCheck.(pair (map Bytes.of_string (string_of_size Gen.(1 -- 300))) small_nat)
    (fun (pdu, i) ->
      let framed = frame pdu in
      let i = i mod Bytes.length framed in
      Bytes.set framed i
        (Char.chr (Char.code (Bytes.get framed i) lxor 0x5a));
      match deframe_check framed with Error _ -> true | Ok _ -> false)

(* [Sar.segment] against the copying oracle: same cells, field by field,
   at odd lengths and every stripe width. *)
let segment_matches_oracle =
  QCheck.Test.make ~name:"sar: segment matches the copying form" ~count:200
    QCheck.(
      triple (map Bytes.of_string (string_of_size Gen.(0 -- 700))) (1 -- 4)
        (0 -- 0xffff))
    (fun (pdu, nlinks, vci) ->
      List.equal ( = )
        (Sar.segment ~vci ~nlinks pdu)
        (Copying.segment ~vci ~nlinks pdu))

(* [Sar.check_trailer] against the copying check: intact, with one
   CRC byte flipped, with a bad length field, and at lengths that are
   no whole number of cells. *)
let check_trailer_matches_oracle =
  QCheck.Test.make ~name:"sar: trailer check matches the copying form"
    ~count:300
    QCheck.(
      triple (map Bytes.of_string (string_of_size Gen.(0 -- 300))) (0 -- 3)
        small_nat)
    (fun (pdu, damage, k) ->
      let framed = frame pdu in
      let total = Bytes.length framed in
      let framed =
        match damage with
        | 1 ->
            let i = total - 4 + (k mod 4) in
            Bytes.set framed i (Char.chr (Char.code (Bytes.get framed i) lxor 0x10));
            framed
        | 2 ->
            (* A length field that frames to another size, with a CRC
               recomputed to match it. *)
            Bytes.set_int32_be framed (total - 8) (Int32.of_int (total + k));
            Bytes.set_int32_be framed (total - 4)
              (Osiris_util.Crc32.compute framed ~off:0 ~len:(total - 4));
            framed
        | 3 -> Bytes.sub framed 0 (k mod total)
        | _ -> framed
      in
      let want = Copying.deframe_check framed in
      deframe_check framed = want && (damage = 0) = Result.is_ok want)

(* Reassemble a list of (link, cell) arrivals and return the recovered
   payload (if the PDU completes and deframes). *)
let reassemble strategy arrivals pdu_len =
  let sar = Sar.create strategy ~max_cells:4096 in
  let framed = Bytes.make (Sar.framed_len pdu_len) '\000' in
  let result = ref None in
  List.iter
    (fun (link, cell) ->
      match Sar.push sar ~link cell with
      | Sar.Rejected r -> failwith ("rejected: " ^ r)
      | Sar.Placed p ->
          Bytes.blit p.Sar.cell.Cell.data 0 framed p.Sar.offset Cell.data_size
      | Sar.Completed (p, total) ->
          Bytes.blit p.Sar.cell.Cell.data 0 framed p.Sar.offset Cell.data_size;
          result := Some total)
    arrivals;
  match !result with
  | None -> Error "incomplete"
  | Some total -> Copying.deframe (Bytes.sub framed 0 total)

let in_order_arrivals ~nlinks cells =
  List.map (fun (c : Cell.t) -> (c.Cell.seq mod nlinks, c)) cells

(* A random member of the skew class: per-link FIFO preserved, links
   interleaved arbitrarily. *)
let skewed_arrivals ~nlinks ~rng cells =
  let queues = Array.make nlinks [] in
  List.iter
    (fun (c : Cell.t) ->
      let l = c.Cell.seq mod nlinks in
      queues.(l) <- c :: queues.(l))
    cells;
  let queues = Array.map List.rev queues in
  let out = ref [] in
  let remaining () =
    Array.exists (fun q -> q <> []) queues
  in
  while remaining () do
    let l = Rng.int rng nlinks in
    match queues.(l) with
    | [] -> ()
    | c :: rest ->
        queues.(l) <- rest;
        out := (l, c) :: !out
  done;
  List.rev !out

let pdu_of_len n = Bytes.init n (fun i -> Char.chr ((i * 7) land 0xff))

let sar_identity_in_order =
  QCheck.Test.make ~name:"sar: segment |> reassemble = id (in order)"
    ~count:100
    QCheck.(int_range 1 2000)
    (fun n ->
      let pdu = pdu_of_len n in
      let cells = Sar.segment ~vci:5 ~nlinks:1 pdu in
      match reassemble Sar.In_order (in_order_arrivals ~nlinks:1 cells) n with
      | Ok out -> Bytes.equal out pdu
      | Error _ -> false)

let sar_identity_per_link_skewed =
  QCheck.Test.make ~name:"sar: per-link reassembly tolerates any skew"
    ~count:100
    QCheck.(pair (int_range 1 2000) (int_range 0 1000))
    (fun (n, seed) ->
      let pdu = pdu_of_len n in
      let cells = Sar.segment ~vci:5 ~nlinks:4 pdu in
      let arrivals = skewed_arrivals ~nlinks:4 ~rng:(Rng.create ~seed) cells in
      match reassemble (Sar.Per_link 4) arrivals n with
      | Ok out -> Bytes.equal out pdu
      | Error _ -> false)

let sar_identity_seq_skewed =
  QCheck.Test.make ~name:"sar: seq-number reassembly tolerates any skew"
    ~count:100
    QCheck.(pair (int_range 1 2000) (int_range 0 1000))
    (fun (n, seed) ->
      let pdu = pdu_of_len n in
      let cells = Sar.segment ~vci:5 ~nlinks:4 pdu in
      let arrivals = skewed_arrivals ~nlinks:4 ~rng:(Rng.create ~seed) cells in
      match reassemble Sar.Seq_number arrivals n with
      | Ok out -> Bytes.equal out pdu
      | Error _ -> false)

let test_in_order_breaks_under_skew () =
  (* A deterministically skewed 10-cell PDU mis-placed by in-order
     reassembly: either the CRC catches it or the PDU never completes —
     data is never silently corrupted only if the CRC fails. *)
  let n = 400 in
  let pdu = pdu_of_len n in
  let cells = Sar.segment ~vci:5 ~nlinks:4 pdu in
  let arrivals = skewed_arrivals ~nlinks:4 ~rng:(Rng.create ~seed:2) cells in
  Alcotest.(check bool) "arrival order differs" true
    (arrivals <> in_order_arrivals ~nlinks:4 cells);
  match
    try reassemble Sar.In_order arrivals n with Failure _ -> Error "rejected"
  with
  | Ok out -> Alcotest.(check bool) "if it passes CRC it is the PDU" true
                (Bytes.equal out pdu)
  | Error _ -> ()

let test_per_link_framing_bits () =
  let pdu = pdu_of_len 400 in
  (* 400 bytes -> 10 cells on 4 links: last cell of each link is framed. *)
  let cells = Sar.segment ~vci:5 ~nlinks:4 pdu in
  Alcotest.(check int) "cell count" 10 (List.length cells);
  let eoms =
    List.filter_map
      (fun (c : Cell.t) -> if c.Cell.eom then Some c.Cell.seq else None)
      cells
  in
  Alcotest.(check (list int)) "framing on last cell per link" [ 6; 7; 8; 9 ]
    eoms;
  let last = List.nth cells 9 in
  Alcotest.(check bool) "very-last bit" true last.Cell.last_of_pdu

let test_short_pdu_single_cell () =
  (* A PDU shorter than the stripe width: the ATM-header last-of-pdu bit
     covers it (paper §2.6). *)
  let pdu = pdu_of_len 10 in
  let cells = Sar.segment ~vci:5 ~nlinks:4 pdu in
  Alcotest.(check int) "one cell" 1 (List.length cells);
  match reassemble (Sar.Per_link 4) (in_order_arrivals ~nlinks:4 cells) 10 with
  | Ok out -> Alcotest.(check bool) "roundtrip" true (Bytes.equal out pdu)
  | Error e -> Alcotest.fail e

let test_seq_duplicate_rejected () =
  let pdu = pdu_of_len 100 in
  let cells = Sar.segment ~vci:5 ~nlinks:1 pdu in
  let sar = Sar.create Sar.Seq_number ~max_cells:64 in
  let first = List.hd cells in
  (match Sar.push sar ~link:0 first with
  | Sar.Placed _ -> ()
  | _ -> Alcotest.fail "first cell placed");
  match Sar.push sar ~link:0 first with
  | Sar.Rejected _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let test_link_finished () =
  let pdu = pdu_of_len 400 in
  let cells = Array.of_list (Sar.segment ~vci:5 ~nlinks:4 pdu) in
  let sar = Sar.create (Sar.Per_link 4) ~max_cells:64 in
  (* Feed link 2's cells only: 2 and 6 (framed). *)
  ignore (Sar.push sar ~link:2 cells.(2));
  Alcotest.(check bool) "not finished yet" false
    (Sar.link_finished sar ~link:2);
  ignore (Sar.push sar ~link:2 cells.(6));
  Alcotest.(check bool) "finished after framing bit" true
    (Sar.link_finished sar ~link:2);
  Alcotest.(check bool) "in progress" true (Sar.in_progress sar)

let suite =
  [
    Alcotest.test_case "cell: header check byte" `Quick test_cell_header_check;
    Alcotest.test_case "cell: sizes" `Quick test_cell_sizes;
    Alcotest.test_case "sar: framed length arithmetic" `Quick test_framed_len;
    QCheck_alcotest.to_alcotest frame_roundtrip;
    QCheck_alcotest.to_alcotest frame_detects_corruption;
    QCheck_alcotest.to_alcotest segment_matches_oracle;
    QCheck_alcotest.to_alcotest check_trailer_matches_oracle;
    QCheck_alcotest.to_alcotest sar_identity_in_order;
    QCheck_alcotest.to_alcotest sar_identity_per_link_skewed;
    QCheck_alcotest.to_alcotest sar_identity_seq_skewed;
    Alcotest.test_case "sar: in-order is unsafe under skew" `Quick
      test_in_order_breaks_under_skew;
    Alcotest.test_case "sar: per-link framing bits" `Quick
      test_per_link_framing_bits;
    Alcotest.test_case "sar: sub-stripe PDU" `Quick test_short_pdu_single_cell;
    Alcotest.test_case "sar: duplicate seq rejected" `Quick
      test_seq_duplicate_rejected;
    Alcotest.test_case "sar: link_finished tracking" `Quick test_link_finished;
  ]
