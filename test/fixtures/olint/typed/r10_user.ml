(* R10 fixture: the reads, the assignment and the non-reads of
   r10_lib.ml's labels. *)

module L = R10_lib

type pair = R10_lib.pair = { left : int; right : int }

let make () =
  {
    R10_lib.from_user = 0;
    own_read = 0;
    by_pattern = 0;
    via_alias = 0;
    with_only = 0;
    eq_only = 0;
    unread = 0;
    assigned = 0;
    never_set = 0;
  }

let reads (r : R10_lib.t) =
  let { R10_lib.by_pattern; _ } = r in
  let module M = L in
  r.R10_lib.from_user + by_pattern + r.M.via_alias + r.R10_lib.assigned
  + r.R10_lib.never_set + R10_lib.own r

let touches (r : R10_lib.t) =
  r.R10_lib.assigned <- 1;
  r = { r with R10_lib.with_only = 1 }

let sides (p : pair) (q : R10_lib.pair) = p.left + q.R10_lib.right
