module Time = Osiris_sim.Time
module Rng = Osiris_util.Rng

type burst = { b_from : Time.t; b_until : Time.t; prob : float }
type window = { w_from : Time.t; w_until : Time.t }

type t = {
  seed : int;
  drop : burst list;
  corrupt : burst list;
  corrupt_header : burst list;
  duplicate : burst list;
  link_down : (int * window) list;
  rx_squeeze : (int * window) list;
  irq_loss : burst list;
  irq_loss_ch : (int * burst) list;
  free_starve : (int * window) list;
  flap : (int * window * Time.t) list;
  trunk_loss : burst list;
  sw_flap : (int * int * window * Time.t) list;
  trunk_down : (int * window) list;
}

let none =
  {
    seed = 0;
    drop = [];
    corrupt = [];
    corrupt_header = [];
    duplicate = [];
    link_down = [];
    rx_squeeze = [];
    irq_loss = [];
    irq_loss_ch = [];
    free_starve = [];
    flap = [];
    trunk_loss = [];
    sw_flap = [];
    trunk_down = [];
  }

type knobs = {
  k_drop : float;
  k_corrupt : float;
  k_header : float;
  k_dup : float;
  k_irq_loss : float;
  k_irq_loss_ch : (int * float) list;
      (* per-ADC-channel interrupt-loss probability, max over the
         channel's active bursts; channels without an active burst are
         absent *)
  k_down : int list;  (* channels whose carrier is cut *)
  k_squeeze : int option;  (* tightest active rx-FIFO capacity *)
  k_free_starve : int list;  (* channels whose free queue is withheld *)
  k_trunk_loss : float;  (* cell-drop probability on inter-switch trunks *)
  k_sw_port_down : (int * int) list;
      (* (switch, port) pairs with the carrier cut *)
  k_trunk_down : int list;  (* fabric trunk indices whose links are cut *)
}

(* A flapping link is down on even half-periods of its storm window:
   down at [w_from], up one half-period later, and so on until the
   window closes (the injector restores the carrier at [w_until]). *)
let flap_is_down (w, half_period) now =
  now >= w.w_from && now < w.w_until && half_period > 0
  && (now - w.w_from) / half_period mod 2 = 0

let active_prob bursts now =
  List.fold_left
    (fun acc b ->
      if now >= b.b_from && now < b.b_until then Float.max acc b.prob else acc)
    0.0 bursts

let knobs_at t now =
  {
    k_drop = active_prob t.drop now;
    k_corrupt = active_prob t.corrupt now;
    k_header = active_prob t.corrupt_header now;
    k_dup = active_prob t.duplicate now;
    k_irq_loss = active_prob t.irq_loss now;
    k_irq_loss_ch =
      (let chans =
         List.sort_uniq compare (List.map fst t.irq_loss_ch)
       in
       List.filter_map
         (fun ch ->
           let bursts =
             List.filter_map
               (fun (c, b) -> if c = ch then Some b else None)
               t.irq_loss_ch
           in
           match active_prob bursts now with
           | 0.0 -> None
           | p -> Some (ch, p))
         chans);
    k_down =
      List.sort_uniq compare
        (List.filter_map
           (fun (l, w) ->
             if now >= w.w_from && now < w.w_until then Some l else None)
           t.link_down
        @ List.filter_map
            (fun (l, w, hp) ->
              if flap_is_down (w, hp) now then Some l else None)
            t.flap);
    k_squeeze =
      List.fold_left
        (fun acc (cap, w) ->
          if now >= w.w_from && now < w.w_until then
            match acc with Some c when c <= cap -> acc | _ -> Some cap
          else acc)
        None t.rx_squeeze;
    k_free_starve =
      List.sort_uniq compare
        (List.filter_map
           (fun (ch, w) ->
             if now >= w.w_from && now < w.w_until then Some ch else None)
           t.free_starve);
    k_trunk_loss = active_prob t.trunk_loss now;
    k_sw_port_down =
      (* Port storms reuse the link-flap half-period model: down on even
         half-periods of the window, restored when it closes. *)
      List.sort_uniq compare
        (List.filter_map
           (fun (s, p, w, hp) ->
             if flap_is_down (w, hp) now then Some (s, p) else None)
           t.sw_flap);
    k_trunk_down =
      List.sort_uniq compare
        (List.filter_map
           (fun (tr, w) ->
             if now >= w.w_from && now < w.w_until then Some tr else None)
           t.trunk_down);
  }

let boundaries t =
  let of_burst b = [ b.b_from; b.b_until ] in
  let of_window w = [ w.w_from; w.w_until ] in
  (* A flap storm toggles at every half-period inside its window, so the
     injector must re-derive the carrier state at each toggle. *)
  let of_flap (_, w, hp) =
    if hp <= 0 then of_window w
    else begin
      let toggles = ref [ w.w_until ] in
      let time = ref w.w_from in
      while !time < w.w_until do
        toggles := !time :: !toggles;
        time := !time + hp
      done;
      !toggles
    end
  in
  List.concat
    [
      List.concat_map of_burst t.drop;
      List.concat_map of_burst t.corrupt;
      List.concat_map of_burst t.corrupt_header;
      List.concat_map of_burst t.duplicate;
      List.concat_map of_burst t.irq_loss;
      List.concat_map (fun (_, b) -> of_burst b) t.irq_loss_ch;
      List.concat_map (fun (_, w) -> of_window w) t.link_down;
      List.concat_map (fun (_, w) -> of_window w) t.rx_squeeze;
      List.concat_map (fun (_, w) -> of_window w) t.free_starve;
      List.concat_map of_flap t.flap;
      List.concat_map of_burst t.trunk_loss;
      List.concat_map (fun (_, _, w, hp) -> of_flap ((), w, hp)) t.sw_flap;
      List.concat_map (fun (_, w) -> of_window w) t.trunk_down;
    ]
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Randomized plans: every choice below is a pure function of [seed], so
   a soak failure reproduces from the seed alone. *)

let random ?(nlinks = 4) ~seed ~horizon () =
  let rng = Rng.create ~seed in
  let h = float_of_int horizon in
  (* Windows live in [5%, 90%] of the horizon so the post-fault grace
     period is fault-free and the run can quiesce. *)
  let window () =
    let from = 0.05 +. Rng.float rng 0.55 in
    let len = 0.05 +. Rng.float rng 0.30 in
    let w_from = int_of_float (from *. h) in
    let w_until = Int.min (int_of_float ((from +. len) *. h)) (int_of_float (0.9 *. h)) in
    { w_from; w_until = Int.max w_until (w_from + 1) }
  in
  let burst lo spread =
    let w = window () in
    { b_from = w.w_from; b_until = w.w_until; prob = lo +. Rng.float rng spread }
  in
  let bursts n lo spread = List.init n (fun _ -> burst lo spread) in
  {
    seed;
    drop = bursts (1 + Rng.int rng 2) 0.0005 0.0045;
    corrupt = bursts 1 0.0005 0.0025;
    corrupt_header = bursts 1 0.0002 0.0008;
    duplicate = bursts 1 0.0005 0.0045;
    link_down = [ (Rng.int rng nlinks, window ()) ];
    rx_squeeze = [ (4 + Rng.int rng 5, window ()) ];
    irq_loss = bursts 1 (0.2 +. Rng.float rng 0.4) 0.0;
    (* Per-channel interrupt loss, free-queue starvation and flap storms
       are targeted faults (the random soak covers the global
       dimensions); seed them explicitly, e.g. "irqloss#3@2ms-4ms=1",
       "freestarve#1@2ms-4ms", "flap#2@2ms-4ms=40us". *)
    irq_loss_ch = [];
    free_starve = [];
    flap = [];
    trunk_loss = [];
    sw_flap = [];
    trunk_down = [];
  }

(* ------------------------------------------------------------------ *)
(* Compact textual form, round-trippable. Times are integer ns with
   optional us/ms/s suffix on input. *)

let sprint_burst key b =
  Printf.sprintf "%s@%d-%d=%g" key b.b_from b.b_until b.prob

let to_string t =
  String.concat ";"
    (Printf.sprintf "seed=%d" t.seed
     :: List.map (sprint_burst "drop") t.drop
    @ List.map (sprint_burst "corrupt") t.corrupt
    @ List.map (sprint_burst "hdr") t.corrupt_header
    @ List.map (sprint_burst "dup") t.duplicate
    @ List.map (sprint_burst "irqloss") t.irq_loss
    @ List.map
        (fun (ch, b) -> sprint_burst (Printf.sprintf "irqloss#%d" ch) b)
        t.irq_loss_ch
    @ List.map
        (fun (l, w) -> Printf.sprintf "down#%d@%d-%d" l w.w_from w.w_until)
        t.link_down
    @ List.map
        (fun (c, w) -> Printf.sprintf "squeeze#%d@%d-%d" c w.w_from w.w_until)
        t.rx_squeeze
    @ List.map
        (fun (c, w) ->
          Printf.sprintf "freestarve#%d@%d-%d" c w.w_from w.w_until)
        t.free_starve
    @ List.map
        (fun (l, w, hp) ->
          Printf.sprintf "flap#%d@%d-%d=%d" l w.w_from w.w_until hp)
        t.flap
    @ List.map (sprint_burst "trunkloss") t.trunk_loss
    @ List.map
        (fun (s, p, w, hp) ->
          Printf.sprintf "swflap#%d.%d@%d-%d=%d" s p w.w_from w.w_until hp)
        t.sw_flap
    @ List.map
        (fun (tr, w) ->
          Printf.sprintf "trunkdown#%d@%d-%d" tr w.w_from w.w_until)
        t.trunk_down)

let parse_time s =
  let num mult suffix =
    let body = String.sub s 0 (String.length s - String.length suffix) in
    int_of_float (float_of_string body *. mult)
  in
  if Filename.check_suffix s "us" then num 1e3 "us"
  else if Filename.check_suffix s "ms" then num 1e6 "ms"
  else if Filename.check_suffix s "ns" then num 1.0 "ns"
  else if Filename.check_suffix s "s" then num 1e9 "s"
  else int_of_string s

let parse_range s =
  match String.split_on_char '-' s with
  | [ a; b ] -> (parse_time a, parse_time b)
  | _ -> failwith ("Fault_plan: bad time range " ^ s)

let of_string s =
  let t = ref { none with seed = 0 } in
  let item part =
    match String.index_opt part '=' with
    | _ when String.trim part = "" -> ()
    | _ -> (
        let key, rest =
          match String.index_opt part '@' with
          | Some i ->
              (String.sub part 0 i,
               String.sub part (i + 1) (String.length part - i - 1))
          | None -> (part, "")
        in
        let key, arg =
          match String.index_opt key '#' with
          | Some i ->
              (String.sub key 0 i,
               Some (String.sub key (i + 1) (String.length key - i - 1)))
          | None -> (key, None)
        in
        let req_arg () =
          match arg with
          | Some a -> int_of_string a
          | None -> failwith ("Fault_plan: missing #channel in " ^ part)
        in
        (* swflap addresses a port of a named switch: "#switch.port" *)
        let req_sw_port () =
          match arg with
          | Some a -> (
              match String.split_on_char '.' a with
              | [ s; p ] -> (int_of_string s, int_of_string p)
              | _ -> failwith ("Fault_plan: bad #switch.port in " ^ part))
          | None -> failwith ("Fault_plan: missing #switch.port in " ^ part)
        in
        match key with
        | _ when String.length key >= 5 && String.sub key 0 5 = "seed=" ->
            t := { !t with seed = int_of_string (String.sub key 5 (String.length key - 5)) }
        | "drop" | "corrupt" | "hdr" | "dup" | "irqloss" -> (
            match String.split_on_char '=' rest with
            | [ range; p ] ->
                let b_from, b_until = parse_range range in
                let b = { b_from; b_until; prob = float_of_string p } in
                t :=
                  (match (key, arg) with
                  | "drop", _ -> { !t with drop = !t.drop @ [ b ] }
                  | "corrupt", _ -> { !t with corrupt = !t.corrupt @ [ b ] }
                  | "hdr", _ ->
                      { !t with corrupt_header = !t.corrupt_header @ [ b ] }
                  | "dup", _ -> { !t with duplicate = !t.duplicate @ [ b ] }
                  | _, Some ch ->
                      (* irqloss#ch: interrupt loss for one ADC channel *)
                      {
                        !t with
                        irq_loss_ch =
                          !t.irq_loss_ch @ [ (int_of_string ch, b) ];
                      }
                  | _, None -> { !t with irq_loss = !t.irq_loss @ [ b ] })
            | _ -> failwith ("Fault_plan: bad burst " ^ part))
        | "down" ->
            let w_from, w_until = parse_range rest in
            t :=
              {
                !t with
                link_down = !t.link_down @ [ (req_arg (), { w_from; w_until }) ];
              }
        | "squeeze" ->
            let w_from, w_until = parse_range rest in
            t :=
              {
                !t with
                rx_squeeze = !t.rx_squeeze @ [ (req_arg (), { w_from; w_until }) ];
              }
        | "freestarve" ->
            let w_from, w_until = parse_range rest in
            t :=
              {
                !t with
                free_starve =
                  !t.free_starve @ [ (req_arg (), { w_from; w_until }) ];
              }
        | "swflap" -> (
            match String.split_on_char '=' rest with
            | [ range; hp ] ->
                let w_from, w_until = parse_range range in
                let s, p = req_sw_port () in
                t :=
                  {
                    !t with
                    sw_flap =
                      !t.sw_flap
                      @ [ (s, p, { w_from; w_until }, parse_time hp) ];
                  }
            | _ -> failwith ("Fault_plan: bad swflap " ^ part))
        | "trunkdown" ->
            let w_from, w_until = parse_range rest in
            t :=
              {
                !t with
                trunk_down = !t.trunk_down @ [ (req_arg (), { w_from; w_until }) ];
              }
        | "trunkloss" -> (
            match String.split_on_char '=' rest with
            | [ range; p ] ->
                let b_from, b_until = parse_range range in
                t :=
                  {
                    !t with
                    trunk_loss =
                      !t.trunk_loss
                      @ [ { b_from; b_until; prob = float_of_string p } ];
                  }
            | _ -> failwith ("Fault_plan: bad trunkloss " ^ part))
        | "flap" -> (
            match String.split_on_char '=' rest with
            | [ range; hp ] ->
                let w_from, w_until = parse_range range in
                t :=
                  {
                    !t with
                    flap =
                      !t.flap
                      @ [ (req_arg (), { w_from; w_until }, parse_time hp) ];
                  }
            | _ -> failwith ("Fault_plan: bad flap " ^ part))
        | _ -> failwith ("Fault_plan: unknown item " ^ part))
  in
  List.iter item (String.split_on_char ';' s);
  !t
