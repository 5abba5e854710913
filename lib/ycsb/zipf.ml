(** Zipfian request distribution — YCSB's default key popularity model
    (Gray et al.'s rejection-free method, as used in YCSB's
    ZipfianGenerator, with the standard constant 0.99). *)

type t = {
  n : int;
  alpha : float;
  zetan : float;
  eta : float;
  rng : Sky_sim.Rng.t;
}

let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !acc

let theta = 0.99

let create ~items rng =
  if items <= 0 then invalid_arg "Zipf.create: items <= 0";
  let zetan = zeta items theta in
  let zeta2 = zeta 2 theta in
  {
    n = items;
    alpha = 1.0 /. (1.0 -. theta);
    zetan;
    eta =
      (1.0 -. Float.pow (2.0 /. float_of_int items) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan));
    rng;
  }

(* Next item in [0, n). *)
let next t =
  let u = Sky_sim.Rng.float t.rng in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. Float.pow 0.5 theta then 1
  else
    let v =
      float_of_int t.n
      *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha
    in
    min (t.n - 1) (int_of_float v)
