// The linearized chain of ResNet's 53 conv stages on Eyeriss, as the
// `stream-long` benchmark simulates it for 10,000 frames: the
// `PipelineMode::Analytic` services, and one undivided Eyeriss staging
// channel per consecutive layer pair. Its two near-tied bottlenecks,
// stage 27 (29,086,848 cycles) and stage 46 (29,338,176), are 19 stages
// apart, so the channels between them gain one frame of backlog about
// every 117 frames and the schedule drifts through many regimes. Included
// by the engine's unit tests, which count its evaluated frames, and by
// the oracle suite, which checks it against the event loop.

/// Per-frame service cycles of each stage.
const RESNET_SERVICES: [u64; 53] = [
    1742312, 2807168, 4742784, 11228672, 11228672, 11322752, 4742784, 11228672, 11322752, 4742784,
    11228672, 5661376, 4706880, 11291392, 22645504, 14543424, 4706880, 11291392, 14543424, 4706880,
    11291392, 14543424, 4706880, 11291392, 7271712, 4605216, 11322752, 29086848, 14554400, 4605216,
    11322752, 14554400, 4605216, 11322752, 14554400, 4605216, 11322752, 14554400, 4605216,
    11322752, 14554400, 4605216, 11322752, 7334544, 4811408, 14658112, 29338176, 14674576, 4811408,
    14658112, 14674576, 4811408, 14658112,
];

/// Capacity of the channel from each stage to the next.
const RESNET_CAPACITIES: [usize; 52] = [
    2, 4, 4, 2, 2, 4, 4, 2, 4, 4, 2, 8, 8, 2, 2, 8, 8, 2, 8, 8, 2, 8, 8, 2, 9, 9, 4, 4, 9, 9, 4, 9,
    9, 4, 9, 9, 4, 9, 9, 4, 9, 9, 4, 9, 9, 8, 8, 9, 9, 8, 9, 9,
];
