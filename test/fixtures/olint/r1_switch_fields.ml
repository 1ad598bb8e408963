(* R1 fixture: the switch's ring pointer and EPD reservation ledger have
   one writer (lib/switch/switch.ml); these foreign assignments must be
   flagged. *)

type port = { mutable q_head : int; mutable reserved : int }

let poke port =
  port.q_head <- 0;
  port.reserved <- port.reserved + 1
