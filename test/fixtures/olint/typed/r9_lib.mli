val used : int -> int
val own_only : int -> int
val knob : ?scale:int -> ?bias:int -> ?offset:int -> int -> int
