open Osiris_sim
module Tc = Osiris_bus.Turbochannel

(* Measure by actually running [n] back-to-back transactions. *)
let measured ~dir ~burst =
  let eng = Engine.create () in
  let bus = Tc.create eng Tc.Shared_bus in
  let n = 10_000 in
  Process.spawn eng ~name:"dma" (fun () ->
      for _ = 1 to n do
        match dir with
        | `Read -> Tc.dma_read bus ~bytes:burst
        | `Write -> Tc.dma_write bus ~bytes:burst
      done);
  Engine.run eng;
  Report.mbps ~bytes_count:(n * burst) ~ns:(Engine.now eng)

let paper =
  [ ((`Read, 44), 367.); ((`Write, 44), 463.); ((`Read, 88), 503.);
    ((`Write, 88), 587.) ]

let table () =
  let rows =
    List.concat_map
      (fun burst ->
        List.map
          (fun dir ->
            let dir_label, paper_label =
              match dir with
              | `Read -> ("transmit (DMA read)", List.assoc_opt (`Read, burst) paper)
              | `Write -> ("receive (DMA write)", List.assoc_opt (`Write, burst) paper)
            in
            [
              Printf.sprintf "%dB (%d cells)" burst (burst / 44);
              dir_label;
              Printf.sprintf "%.1f" (Tc.max_dma_mbps ~dir ~burst);
              Printf.sprintf "%.1f" (measured ~dir ~burst);
              (match paper_label with
              | Some p -> Printf.sprintf "%.0f" p
              | None -> "-");
            ])
          [ `Read; `Write ])
      [ 44; 88; 132; 176 ]
  in
  {
    Report.t_title =
      "2.5.1: TURBOchannel DMA throughput bounds by transfer length";
    header = [ "burst"; "direction"; "closed-form"; "simulated"; "paper" ];
    rows;
    t_paper_note =
      "367/463 Mbps at one-cell bursts, 503/587 at two cells; returns \
       diminish beyond double-cell DMA";
  }
