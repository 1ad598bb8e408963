(* R9 fixture: [used] is referenced from a sibling unit (r9_user.ml) and
   must not be flagged; [own_only] is called only inside this unit and
   must be. Of [knob]'s optional parameters the sibling passes [?scale]
   and forwards [?bias]; nothing passes [?offset], which alone must be
   flagged. *)

let own_only x = x + 1
let used x = own_only x * 2
let knob ?(scale = 1) ?(bias = 0) ?(offset = 0) x = (x * scale) + bias + offset
