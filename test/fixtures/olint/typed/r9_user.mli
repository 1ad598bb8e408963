val unused : ?bias:int -> int -> int
