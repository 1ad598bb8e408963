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

val own : t -> int
