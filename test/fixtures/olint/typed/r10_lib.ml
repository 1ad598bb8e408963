(* R10 fixture: one label of [t] per case, each named for it. Reads
   count from any unit: [from_user], [by_pattern] and [via_alias] are
   read in r10_user.ml (by field access, by a record pattern, and
   through a top-level and a local module alias), [own_read] only here.
   [with_only] is touched only by a [{ r with ... }] and [eq_only] only
   by [=], and nothing touches [unread]: those three must be flagged.
   Of the mutable labels, r10_user.ml assigns [assigned] and never
   [never_set], which alone must be flagged. [pair]'s labels are read
   one through r10_user's manifest re-export and one directly; neither
   type may be flagged. *)

type t = {
  from_user : int;
  own_read : int;
  by_pattern : int;
  via_alias : int;
  with_only : int;
  eq_only : int;
  unread : int;
  mutable assigned : int;
  mutable never_set : int;
}

type pair = { left : int; right : int }

let own r = r.own_read
