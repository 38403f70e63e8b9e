"""Simulated image search.

"Search engines can identify images matching a query; these images can
be passed to an image analysis service and/or stored locally" (§2.2).
This service is the image-search half of that sentence: a tag-indexed
catalogue of synthetic images (see :mod:`repro.services.vision`) that
answers keyword queries with image descriptors — which the Rich SDK
then feeds to the visual recognition providers.

Tags are noisy on purpose: most images carry their gold label as a tag,
but a seeded fraction carry wrong or missing tags, so search results
contain genuinely off-topic images and downstream classification has
real work to do.
"""

from __future__ import annotations

from repro.services.base import ServiceRequest, SimulatedService
from repro.services.vision import SyntheticImage, generate_images
from repro.simnet.errors import RemoteServiceError
from repro.simnet.latency import LatencyDistribution
from repro.simnet.transport import Transport
from repro.util.rng import SeededRng


class ImageSearchService(SimulatedService):
    """Tag-based image search over a synthetic image collection.

    Operations:

    * ``search_images`` — ``{"query": "cat", "limit": 10}`` → images
      whose tags contain the query term;
    * ``get_image`` — ``{"image_id": ...}`` → one image's descriptor.
    """

    def __init__(
        self,
        name: str,
        transport: Transport,
        images: list[SyntheticImage] | None = None,
        mistag_rate: float = 0.15,
        seed: int = 11,
        latency: LatencyDistribution | None = None,
        **service_kwargs,
    ) -> None:
        super().__init__(name, "imagesearch", transport, latency=latency,
                         **service_kwargs)
        self.images = images if images is not None else generate_images(
            count=200, seed=seed)
        rng = SeededRng(seed).child("tags")
        labels = sorted({image.gold_label for image in self.images})
        self._tags: dict[str, list[str]] = {}
        for image in self.images:
            if rng.bernoulli(mistag_rate):
                # Mistagged: the uploader labelled it as something else.
                tags = [rng.choice([label for label in labels
                                    if label != image.gold_label])]
            else:
                tags = [image.gold_label]
            if rng.bernoulli(0.3):
                tags.append(rng.choice(labels))  # a second, noisy tag
            self._tags[image.image_id] = tags
        self._by_id = {image.image_id: image for image in self.images}

    def _handle(self, request: ServiceRequest) -> object:
        payload = request.payload
        if request.operation == "search_images":
            query = str(payload.get("query", "")).strip().lower()
            if not query:
                raise RemoteServiceError(self.name,
                                         "search_images requires 'query'",
                                         status=400)
            limit = int(payload.get("limit", 10))
            hits = []
            for image in self.images:
                if query in (tag.lower() for tag in self._tags[image.image_id]):
                    hits.append({
                        "image_id": image.image_id,
                        "descriptor": image.descriptor,
                        "tags": self._tags[image.image_id],
                    })
                    if len(hits) >= limit:
                        break
            return {"query": query, "results": hits}
        if request.operation == "get_image":
            image_id = str(payload.get("image_id", ""))
            image = self._by_id.get(image_id)
            if image is None:
                raise RemoteServiceError(self.name,
                                         f"no such image {image_id!r}",
                                         status=404)
            return {"image_id": image_id, "descriptor": image.descriptor,
                    "tags": self._tags[image_id]}
        raise RemoteServiceError(self.name, f"unknown operation "
                                 f"{request.operation!r}", status=400)
